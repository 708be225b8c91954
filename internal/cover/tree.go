// Package cover implements the negative and positive cover structures of
// EulerFD (Sections IV-D and IV-E): per-RHS extended binary set-tries that
// store LHS attribute sets and answer specialization (superset) and
// generalization (subset) queries quickly, plus the inversion operator of
// Algorithm 3.
//
// The tree follows the extended binary tree of Bleifuß et al. (AID-FD),
// which the paper adopts: internal nodes split on one attribute — LHSs
// containing the attribute live in the right subtree, the rest in the left
// — and every internal node caches the intersection and union of all
// descendant sets so that subset searches can be cut off early (when the
// intersection is not included in the probe) and superset searches likewise
// (when the probe is not included in the union).
package cover

import (
	"fmt"
	"math/bits"
	"slices"

	"eulerfd/internal/fdset"
)

// Tree stores a family of attribute sets (LHSs for one fixed RHS) and
// supports subset/superset queries, removal, and enumeration. The zero
// value is not usable; call NewTree. A Tree is not safe for concurrent
// use: each per-RHS tree is owned by one shard at a time.
//
// A tree holds its sets at the relation's width, mw = ⌈ncols/64⌉ words
// (word k holds attributes [64k, 64k+64)), not at fdset.AttrSet's fixed
// six: every predicate is a loop over mw words. The exported methods take
// and return fdset.AttrSet and convert at the boundary.
type Tree struct {
	mw int
	// nodes is the node arena; index 0 is the nil sentinel, so a zero
	// root or child means none. Nodes link by index, so the garbage
	// collector never scans the arena. Adding may grow (move) the arena
	// and aggs: code holds node indices across calls, never slices.
	nodes []node
	// aggs holds 2·mw words per node, by node index: the intersection of
	// the sets below it, then their union. A leaf's set is its inter,
	// which equals its union.
	aggs []uint64
	root int32
	size int
	// rank orders attributes when choosing split attributes; lower rank
	// splits first. The paper sorts LHS attributes by ascending frequency
	// so that rare attributes discriminate near the root.
	rank []int
	// members mirrors the stored sets for O(1) exact-membership checks.
	// The inversion fast path (enumerating potential blockers of a
	// candidate) depends on this.
	members *Masks
	// free chains (through left) the nodes that removals unlinked; Add
	// takes from it before growing the arena, so a tree that shrinks and
	// regrows — every inversion does — reuses its nodes.
	free int32
	// pending lists the leaves marked pending since the last
	// takePending, in marking order. The mark on the leaf is what counts:
	// an entry whose leaf has since been removed, or whose node has been
	// recycled, is skipped, and a node recycled into a marked leaf again
	// is listed twice but taken once.
	pending []int32
	// Scratch, mw words per set, grown once and reused: removed holds the
	// sets the last removal walk took out (an inversion's generals, an
	// admission's superseded sets); subsets is one general's blocker
	// table; cand and probe are one candidate and one membership probe.
	removed, subsets, cand, probe []uint64
	// taken is takePending's result buffer.
	taken []int32
}

// node is a trie node. A leaf (attr < 0) holds exactly one stored set in
// its aggregates.
type node struct {
	attr        int32 // split attribute, or leafAttr or pendingLeaf
	left, right int32 // child indices; 0 is none
}

// A leaf's attr: pendingLeaf marks a negative-cover set admitted since
// its RHS was last inverted. Every new or recycled node starts unmarked.
const (
	leafAttr    = -1
	pendingLeaf = -2
)

// NewTree builds an empty tree over ncols attributes. rank, when non-nil,
// maps attribute index to split priority (lower first); nil means natural
// attribute order.
func NewTree(ncols int, rank []int) *Tree {
	mw := max(1, (ncols+63)/64)
	if mw > fdset.NumWords {
		panic(fmt.Sprintf("cover: %d columns exceed fdset.MaxAttrs", ncols))
	}
	return &Tree{
		mw: mw, rank: rank,
		nodes: make([]node, 1), aggs: make([]uint64, 2*mw),
		members: NewMasks(mw, false, false),
		cand:    make([]uint64, mw), probe: make([]uint64, mw),
	}
}

// Size returns the number of stored sets.
func (t *Tree) Size() int { return t.size }

// has reports whether attribute a is in the set w.
func has(w []uint64, a int) bool {
	return uint(a>>6) < uint(len(w)) && w[a>>6]&(1<<(a&63)) != 0
}

// subset reports a ⊆ b for two sets of one width.
func subset(a, b []uint64) bool {
	b = b[:len(a)]
	for i, x := range a {
		if x&^b[i] != 0 {
			return false
		}
	}
	return true
}

// words copies the first mw words of s into buf and returns them: s
// itself whenever it fits the tree.
func (t *Tree) words(buf *[fdset.NumWords]uint64, s fdset.AttrSet) []uint64 {
	w := buf[:t.mw]
	for i := range w {
		w[i] = s.Word(i)
	}
	return w
}

// fits reports whether s has no attribute at or above 64·mw. A set that
// does not fit can be neither stored nor a superset of a stored set, but
// its first mw words still decide which stored sets it contains.
func (t *Tree) fits(s fdset.AttrSet) bool {
	for i := t.mw; i < fdset.NumWords; i++ {
		if s.Word(i) != 0 {
			return false
		}
	}
	return true
}

// mustFit panics when s does not fit the tree: storing such a set is a
// programming error.
func (t *Tree) mustFit(s fdset.AttrSet) {
	if !t.fits(s) {
		panic(fmt.Sprintf("cover: %v does not fit a %d-word tree", s, t.mw))
	}
}

// appendSets appends the sets of ws, mw words apiece, to out.
func (t *Tree) appendSets(out []fdset.AttrSet, ws []uint64) []fdset.AttrSet {
	for i := 0; i < len(ws); i += t.mw {
		out = append(out, fdset.FromWords(ws[i:i+t.mw]))
	}
	return out
}

// inter returns node n's intersection aggregate: a leaf's set.
func (t *Tree) inter(n int32) []uint64 {
	o := 2 * t.mw * int(n)
	return t.aggs[o : o+t.mw : o+t.mw]
}

// union returns node n's union aggregate.
func (t *Tree) union(n int32) []uint64 {
	o := t.mw * (2*int(n) + 1)
	return t.aggs[o : o+t.mw : o+t.mw]
}

// isLeaf reports whether node n is a leaf.
func (t *Tree) isLeaf(n int32) bool { return t.nodes[n].attr < 0 }

// recompute re-derives internal node n's aggregates from its two
// children. Internal nodes always have both: a removal that empties one
// side collapses the node into the other.
func (t *Tree) recompute(n int32) {
	l, r := t.nodes[n].left, t.nodes[n].right
	in, un := t.inter(n), t.union(n)
	li, lu, ri, ru := t.inter(l), t.union(l), t.inter(r), t.union(r)
	for i := range in {
		in[i] = li[i] & ri[i]
		un[i] = lu[i] | ru[i]
	}
}

// newNode returns an unmarked node with the given split attribute
// (leafAttr for a leaf), recycled from the free list when one is
// available, else appended to the arena. Its aggregates are the caller's
// to fill.
func (t *Tree) newNode(attr int32) int32 {
	n := t.free
	if n != 0 {
		t.free = t.nodes[n].left
		t.nodes[n] = node{attr: attr}
		return n
	}
	n = int32(len(t.nodes))
	if len(t.nodes) == cap(t.nodes) {
		// Double both at once: appending to each grew the aggregates at
		// Go's slower rate for large slices, copying them more often.
		c := 2 * cap(t.nodes)
		t.nodes = append(make([]node, 0, c), t.nodes...)
		t.aggs = append(make([]uint64, 0, 2*t.mw*c), t.aggs...)
	}
	t.nodes = append(t.nodes, node{attr: attr})
	t.aggs = t.aggs[:len(t.aggs)+2*t.mw]
	return n
}

// newLeaf returns a leaf holding s.
func (t *Tree) newLeaf(s []uint64) int32 {
	n := t.newNode(leafAttr)
	copy(t.inter(n), s)
	copy(t.union(n), s)
	return n
}

// recycle puts an unlinked node on the free list. Its children are
// dropped, so a recycled node never links live nodes.
func (t *Tree) recycle(n int32) {
	t.nodes[n] = node{left: t.free}
	t.free = n
}

// recycleAll puts every node of the subtree rooted at n on the free list.
func (t *Tree) recycleAll(n int32) {
	if n == 0 {
		return
	}
	// A leaf's children are 0, so the recursion ends there.
	t.recycleAll(t.nodes[n].left)
	t.recycleAll(t.nodes[n].right)
	t.recycle(n)
}

// reset empties the tree, keeping its nodes on the free list and its
// membership table's capacity for the sets that come next.
func (t *Tree) reset() {
	t.recycleAll(t.root)
	t.root, t.size = 0, 0
	t.members.reset()
	t.pending = t.pending[:0]
}

func (t *Tree) rankOf(a int) int {
	if t.rank != nil && a < len(t.rank) {
		return t.rank[a]
	}
	return a
}

// splitAttr picks the discriminating attribute between two distinct sets:
// the lowest-rank attribute of their symmetric difference.
func (t *Tree) splitAttr(a, b []uint64) int {
	best, bestRank := -1, int(^uint(0)>>1)
	for k, x := range a {
		for d := x ^ b[k]; d != 0; d &= d - 1 {
			at := k<<6 | bits.TrailingZeros64(d)
			if r := t.rankOf(at); r < bestRank {
				best, bestRank = at, r
			}
		}
	}
	return best
}

// Add inserts s, reporting whether it was not already present. It panics
// when s does not fit the tree's width, as that is a programming error.
func (t *Tree) Add(s fdset.AttrSet) bool {
	t.mustFit(s)
	var buf [fdset.NumWords]uint64
	return t.add(t.words(&buf, s))
}

// add is Add on a set of mw words.
func (t *Tree) add(s []uint64) bool { return t.insert(s) != 0 }

// insert is add returning the new leaf, or 0 when s was already stored.
func (t *Tree) insert(s []uint64) int32 {
	if !t.members.insert(s) {
		return 0
	}
	t.size++
	if t.root == 0 {
		t.root = t.newLeaf(s)
		return t.root
	}
	// Iterative descent. Adding a set can only shrink intersections and
	// grow unions along the path, so aggregates are updated on the way
	// down — no unwind needed.
	n, parent, fromRight := t.root, int32(0), false
	for !t.isLeaf(n) {
		in, un := t.inter(n), t.union(n)
		for i, x := range s {
			in[i] &= x
			un[i] |= x
		}
		parent = n
		if has(s, int(t.nodes[n].attr)) {
			n, fromRight = t.nodes[n].right, true
		} else {
			n, fromRight = t.nodes[n].left, false
		}
	}
	// Split leaf n on an attribute that discriminates its set from s.
	a := t.splitAttr(t.inter(n), s)
	in, leaf := t.newNode(int32(a)), t.newLeaf(s)
	old, ii, iu := t.inter(n), t.inter(in), t.union(in)
	for i, x := range s {
		ii[i] = old[i] & x
		iu[i] = old[i] | x
	}
	if has(old, a) {
		t.nodes[in].right, t.nodes[in].left = n, leaf
	} else {
		t.nodes[in].left, t.nodes[in].right = n, leaf
	}
	switch {
	case parent == 0:
		t.root = in
	case fromRight:
		t.nodes[parent].right = in
	default:
		t.nodes[parent].left = in
	}
	return leaf
}

// markPending marks leaf pending and lists it.
func (t *Tree) markPending(leaf int32) {
	t.nodes[leaf].attr = pendingLeaf
	t.pending = append(t.pending, leaf)
}

// takePending unmarks every pending leaf and returns them sorted by
// their sets in canonical order: ascending cardinality, then ascending
// attribute list (fdset.Compare's order within one RHS). The result
// aliases a buffer the next call reuses.
func (t *Tree) takePending() []int32 {
	taken := t.taken[:0]
	for _, n := range t.pending {
		if t.nodes[n].attr == pendingLeaf {
			t.nodes[n].attr = leafAttr
			taken = append(taken, n)
		}
	}
	t.pending = t.pending[:0]
	slices.SortFunc(taken, func(a, b int32) int { return fdset.CompareMasks(t.inter(a), t.inter(b)) })
	t.taken = taken
	return taken
}

// Contains reports whether s is stored exactly.
func (t *Tree) Contains(s fdset.AttrSet) bool {
	var buf [fdset.NumWords]uint64
	return t.fits(s) && t.members.has(t.words(&buf, s))
}

// ContainsSuperset reports whether some stored set Z satisfies Z ⊇ s: the
// findSpecialization check of Algorithm 2.
func (t *Tree) ContainsSuperset(s fdset.AttrSet) bool {
	var buf [fdset.NumWords]uint64
	return t.fits(s) && t.containsSuperset(t.root, t.words(&buf, s))
}

func (t *Tree) containsSuperset(n int32, s []uint64) bool {
	if n == 0 || !subset(s, t.union(n)) {
		return false
	}
	nd := t.nodes[n]
	if nd.attr < 0 {
		// union is the leaf's own set, already tested.
		return true
	}
	if has(s, int(nd.attr)) {
		// Supersets of s must contain nd.attr, so only the right subtree.
		return t.containsSuperset(nd.right, s)
	}
	return t.containsSuperset(nd.right, s) || t.containsSuperset(nd.left, s)
}

// ContainsSubset reports whether some stored set Y satisfies Y ⊆ s: the
// findGeneralization check of Algorithm 3.
func (t *Tree) ContainsSubset(s fdset.AttrSet) bool {
	var buf [fdset.NumWords]uint64
	return t.findSubset(t.root, t.words(&buf, s)) != 0
}

// FindSubset returns one stored set Y ⊆ s, if any.
func (t *Tree) FindSubset(s fdset.AttrSet) (fdset.AttrSet, bool) {
	var buf [fdset.NumWords]uint64
	if n := t.findSubset(t.root, t.words(&buf, s)); n != 0 {
		return fdset.FromWords(t.inter(n)), true
	}
	return fdset.AttrSet{}, false
}

// findSubset returns the leaf of one stored set Y ⊆ s below n, or 0.
func (t *Tree) findSubset(n int32, s []uint64) int32 {
	if n == 0 || !subset(t.inter(n), s) {
		return 0
	}
	// Positive shortcut: when every attribute stored below is in s, any
	// leaf is a subset — dense covers hit this constantly. A leaf always
	// takes it (its inter and union are its set).
	if subset(t.union(n), s) {
		for !t.isLeaf(n) {
			n = t.nodes[n].left
		}
		return n
	}
	nd := t.nodes[n]
	if nd.attr < 0 {
		return 0
	}
	if !has(s, int(nd.attr)) {
		// Subsets of s cannot contain nd.attr, so only the left subtree.
		return t.findSubset(nd.left, s)
	}
	if y := t.findSubset(nd.left, s); y != 0 {
		return y
	}
	return t.findSubset(nd.right, s)
}

// ContainsSubsetWithAttr reports whether some stored Y satisfies
// Y ⊆ s ∧ attr ∈ Y. The inversion operator uses it for candidate
// minimality checks: any stored subset of general ∪ {attr} must contain
// attr (the tree is an antichain and general itself was just removed),
// so subtrees whose union lacks attr are pruned wholesale.
func (t *Tree) ContainsSubsetWithAttr(s fdset.AttrSet, attr int) bool {
	var buf [fdset.NumWords]uint64
	return t.findSubsetWith(t.root, t.words(&buf, s), attr)
}

func (t *Tree) findSubsetWith(n int32, s []uint64, attr int) bool {
	if n == 0 || !has(t.union(n), attr) || !subset(t.inter(n), s) {
		return false
	}
	nd := t.nodes[n]
	if nd.attr < 0 {
		// The leaf's set is its union (has attr) and its inter (⊆ s).
		return true
	}
	if int(nd.attr) == attr {
		// Sets containing attr live only in the right subtree.
		return t.findSubsetWith(nd.right, s, attr)
	}
	if !has(s, int(nd.attr)) {
		return t.findSubsetWith(nd.left, s, attr)
	}
	return t.findSubsetWith(nd.left, s, attr) || t.findSubsetWith(nd.right, s, attr)
}

// RemoveSubsets deletes every stored set Y ⊆ s and returns the removed
// sets. Ncover construction uses it to discard generalizations of a newly
// added non-FD.
func (t *Tree) RemoveSubsets(s fdset.AttrSet) []fdset.AttrSet {
	var buf [fdset.NumWords]uint64
	t.removed = t.removeSubsetsInto(t.words(&buf, s), t.removed[:0])
	return t.appendSets(nil, t.removed)
}

// removeSubsetsInto is RemoveSubsets appending the removed sets, mw words
// apiece, to out, so callers with a reusable buffer allocate nothing.
func (t *Tree) removeSubsetsInto(s, out []uint64) []uint64 {
	from := len(out)
	t.root, _ = t.removeSubsets(t.root, s, &out)
	t.size -= (len(out) - from) / t.mw
	for i := from; i < len(out); i += t.mw {
		t.members.remove(out[i : i+t.mw])
	}
	return out
}

// removeSubsets unlinks every stored Y ⊆ s below n, appending each to
// *out and recycling the unlinked nodes. It returns the subtree's new
// root and whether anything below n was removed: only the paths that
// lost a set re-derive their aggregates.
func (t *Tree) removeSubsets(n int32, s []uint64, out *[]uint64) (int32, bool) {
	if n == 0 || !subset(t.inter(n), s) {
		return n, false
	}
	nd := t.nodes[n]
	if nd.attr < 0 {
		// inter is the leaf's own set, so it is a subset of s.
		*out = append(*out, t.inter(n)...)
		t.recycle(n)
		return 0, true
	}
	left, changedL := t.removeSubsets(nd.left, s, out)
	right, changedR := nd.right, false
	if has(s, int(nd.attr)) {
		right, changedR = t.removeSubsets(nd.right, s, out)
	}
	if !changedL && !changedR {
		return n, false
	}
	t.nodes[n].left, t.nodes[n].right = left, right
	return t.repair(n), true
}

// removeSupersets unlinks every stored Z ⊇ s below n, recycling the
// unlinked nodes. It mirrors removeSubsets: the walk prunes subtrees
// whose union lacks part of s, and only the paths that lost a set
// re-derive their aggregates. It returns the subtree's new root and
// whether anything below n was removed.
func (t *Tree) removeSupersets(n int32, s []uint64) (int32, bool) {
	if n == 0 || !subset(s, t.union(n)) {
		return n, false
	}
	nd := t.nodes[n]
	if nd.attr < 0 {
		// union is the leaf's own set, so it is a superset of s.
		t.members.remove(t.inter(n))
		t.size--
		t.recycle(n)
		return 0, true
	}
	left, changedL := nd.left, false
	if !has(s, int(nd.attr)) {
		// Sets lacking nd.attr can be supersets of s only when s lacks it.
		left, changedL = t.removeSupersets(nd.left, s)
	}
	right, changedR := t.removeSupersets(nd.right, s)
	if !changedL && !changedR {
		return n, false
	}
	t.nodes[n].left, t.nodes[n].right = left, right
	return t.repair(n), true
}

// repair restores internal node n after a removal below it: a node that
// lost a whole side is replaced by the other side (or vanishes) and goes
// on the free list; otherwise its aggregates are re-derived.
func (t *Tree) repair(n int32) int32 {
	var keep int32
	switch nd := t.nodes[n]; {
	case nd.left == 0:
		keep = nd.right
	case nd.right == 0:
		keep = nd.left
	default:
		t.recompute(n)
		return n
	}
	t.recycle(n)
	return keep
}

// Remove deletes the exact set s, reporting whether it was present.
func (t *Tree) Remove(s fdset.AttrSet) bool {
	var buf [fdset.NumWords]uint64
	w := t.words(&buf, s)
	if !t.fits(s) || !t.members.has(w) {
		return false
	}
	t.root = t.remove(t.root, w)
	t.size--
	t.members.remove(w)
	return true
}

// remove unlinks the leaf of stored set s from the subtree rooted at n.
// The descent follows s's split decisions, which is the path Add placed
// its leaf on.
func (t *Tree) remove(n int32, s []uint64) int32 {
	nd := t.nodes[n]
	if nd.attr < 0 {
		if !slices.Equal(t.inter(n), s) {
			panic("cover: stored set is not on its descent path")
		}
		t.recycle(n)
		return 0
	}
	if has(s, int(nd.attr)) {
		right := t.remove(nd.right, s)
		t.nodes[n].right = right
	} else {
		left := t.remove(nd.left, s)
		t.nodes[n].left = left
	}
	return t.repair(n)
}

// ForEach visits every stored set; it stops early when fn returns false.
func (t *Tree) ForEach(fn func(fdset.AttrSet) bool) {
	t.forEach(t.root, fn)
}

func (t *Tree) forEach(n int32, fn func(fdset.AttrSet) bool) bool {
	if n == 0 {
		return true
	}
	nd := t.nodes[n]
	if nd.attr < 0 {
		return fn(fdset.FromWords(t.inter(n)))
	}
	return t.forEach(nd.left, fn) && t.forEach(nd.right, fn)
}

// Sets returns all stored sets in tree order.
func (t *Tree) Sets() []fdset.AttrSet {
	out := make([]fdset.AttrSet, 0, t.size)
	t.ForEach(func(s fdset.AttrSet) bool {
		out = append(out, s)
		return true
	})
	return out
}
