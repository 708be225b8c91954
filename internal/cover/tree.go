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
	"eulerfd/internal/fdset"
)

// Tree stores a family of attribute sets (LHSs for one fixed RHS) and
// supports subset/superset queries, removal, and enumeration. The zero
// value is not usable; call NewTree. A Tree is not safe for concurrent
// use: each per-RHS tree is owned by one shard at a time.
type Tree struct {
	root *node
	size int
	// rank orders attributes when choosing split attributes; lower rank
	// splits first. The paper sorts LHS attributes by ascending frequency
	// so that rare attributes discriminate near the root.
	rank []int
	// members mirrors the stored sets for O(1) exact-membership checks;
	// AttrSet is comparable, so it keys the map directly. The inversion
	// fast path (enumerating potential blockers of a candidate) depends
	// on this.
	members map[fdset.AttrSet]struct{}
	// free chains (through left) the nodes that removals unlinked; Add
	// takes from it before allocating, so a tree that shrinks and regrows
	// — every inversion does — reuses its nodes.
	free *node
	// generals and subsets are PCover.Invert's scratch: the removed
	// generalizations and one general's blocker table, grown once and
	// reused by every inversion on this tree.
	generals []fdset.AttrSet
	subsets  []fdset.AttrSet
}

// node is a trie node. A leaf (attr < 0) holds exactly one stored set,
// which is both its inter and its union.
type node struct {
	attr        int // split attribute; -1 marks a leaf
	left, right *node
	inter       fdset.AttrSet // intersection of all descendant sets
	union       fdset.AttrSet // union of all descendant sets
}

func (n *node) isLeaf() bool { return n.attr < 0 }

// set is the stored set of a leaf.
func (n *node) set() fdset.AttrSet { return n.inter }

// recompute re-derives an internal node's aggregates from its two
// children. Internal nodes always have both: a removal that empties one
// side collapses the node into the other.
func (n *node) recompute() {
	n.inter = n.left.inter.Intersect(n.right.inter)
	n.union = n.left.union.Union(n.right.union)
}

// NewTree builds an empty tree. rank, when non-nil, maps attribute index to
// split priority (lower first); nil means natural attribute order.
func NewTree(rank []int) *Tree {
	return &Tree{rank: rank, members: make(map[fdset.AttrSet]struct{})}
}

// Size returns the number of stored sets.
func (t *Tree) Size() int { return t.size }

// newNode returns a node with the given split attribute and aggregates,
// recycled from the free list when one is available.
func (t *Tree) newNode(attr int, inter, union fdset.AttrSet) *node {
	n := t.free
	if n == nil {
		return &node{attr: attr, inter: inter, union: union}
	}
	t.free = n.left
	*n = node{attr: attr, inter: inter, union: union}
	return n
}

// recycle puts an unlinked node on the free list. Its child pointers are
// dropped, so a recycled node never keeps live nodes reachable.
func (t *Tree) recycle(n *node) {
	*n = node{left: t.free}
	t.free = n
}

// recycleAll puts every node of the subtree rooted at n on the free list.
func (t *Tree) recycleAll(n *node) {
	if n == nil {
		return
	}
	if !n.isLeaf() {
		t.recycleAll(n.left)
		t.recycleAll(n.right)
	}
	t.recycle(n)
}

// reset empties the tree, keeping its nodes on the free list and its
// membership table's capacity for the sets that come next.
func (t *Tree) reset() {
	t.recycleAll(t.root)
	t.root, t.size = nil, 0
	clear(t.members)
}

func (t *Tree) rankOf(a int) int {
	if t.rank != nil && a < len(t.rank) {
		return t.rank[a]
	}
	return a
}

// splitAttr picks the discriminating attribute between two distinct sets:
// the lowest-rank attribute of their symmetric difference.
func (t *Tree) splitAttr(a, b fdset.AttrSet) int {
	sym := a.Diff(b).Union(b.Diff(a))
	best, bestRank := -1, int(^uint(0)>>1)
	sym.ForEach(func(x int) bool {
		if r := t.rankOf(x); r < bestRank {
			best, bestRank = x, r
		}
		return true
	})
	return best
}

// Add inserts s, reporting whether it was not already present.
func (t *Tree) Add(s fdset.AttrSet) bool {
	if _, dup := t.members[s]; dup {
		return false
	}
	t.members[s] = struct{}{}
	t.size++
	if t.root == nil {
		t.root = t.newNode(-1, s, s)
		return true
	}
	// Iterative descent. Adding a set can only shrink intersections and
	// grow unions along the path, so aggregates are updated on the way
	// down — no unwind needed.
	n := t.root
	var parent *node
	fromRight := false
	for !n.isLeaf() {
		n.inter = n.inter.Intersect(s)
		n.union = n.union.Union(s)
		parent = n
		if s.Has(n.attr) {
			n, fromRight = n.right, true
		} else {
			n, fromRight = n.left, false
		}
	}
	// Split the leaf on an attribute that discriminates it from s.
	old := n.set()
	a := t.splitAttr(old, s)
	in := t.newNode(a, old.Intersect(s), old.Union(s))
	if old.Has(a) {
		in.right, in.left = n, t.newNode(-1, s, s)
	} else {
		in.left, in.right = n, t.newNode(-1, s, s)
	}
	switch {
	case parent == nil:
		t.root = in
	case fromRight:
		parent.right = in
	default:
		parent.left = in
	}
	return true
}

// Contains reports whether s is stored exactly.
func (t *Tree) Contains(s fdset.AttrSet) bool {
	_, ok := t.members[s]
	return ok
}

// ContainsSuperset reports whether some stored set Z satisfies Z ⊇ s: the
// findSpecialization check of Algorithm 2.
func (t *Tree) ContainsSuperset(s fdset.AttrSet) bool {
	return containsSuperset(t.root, s)
}

func containsSuperset(n *node, s fdset.AttrSet) bool {
	if n == nil || !s.IsSubsetOf(n.union) {
		return false
	}
	if n.isLeaf() {
		// union is the leaf's own set, already tested.
		return true
	}
	if s.Has(n.attr) {
		// Supersets of s must contain n.attr, so only the right subtree.
		return containsSuperset(n.right, s)
	}
	return containsSuperset(n.right, s) || containsSuperset(n.left, s)
}

// ContainsSubset reports whether some stored set Y satisfies Y ⊆ s: the
// findGeneralization check of Algorithm 3.
func (t *Tree) ContainsSubset(s fdset.AttrSet) bool {
	_, ok := findSubset(t.root, s)
	return ok
}

// FindSubset returns one stored set Y ⊆ s, if any.
func (t *Tree) FindSubset(s fdset.AttrSet) (fdset.AttrSet, bool) {
	return findSubset(t.root, s)
}

func findSubset(n *node, s fdset.AttrSet) (fdset.AttrSet, bool) {
	if n == nil || !n.inter.IsSubsetOf(s) {
		return fdset.AttrSet{}, false
	}
	// Positive shortcut: when every attribute stored below is in s, any
	// leaf is a subset — dense covers hit this constantly. A leaf always
	// takes it (its inter and union are its set).
	if n.union.IsSubsetOf(s) {
		for !n.isLeaf() {
			n = n.left
		}
		return n.set(), true
	}
	if n.isLeaf() {
		return fdset.AttrSet{}, false
	}
	if !s.Has(n.attr) {
		// Subsets of s cannot contain n.attr, so only the left subtree.
		return findSubset(n.left, s)
	}
	if y, ok := findSubset(n.left, s); ok {
		return y, true
	}
	return findSubset(n.right, s)
}

// ContainsSubsetWithAttr reports whether some stored Y satisfies
// Y ⊆ s ∧ attr ∈ Y. The inversion operator uses it for candidate
// minimality checks: any stored subset of general ∪ {attr} must contain
// attr (the tree is an antichain and general itself was just removed),
// so subtrees whose union lacks attr are pruned wholesale.
func (t *Tree) ContainsSubsetWithAttr(s fdset.AttrSet, attr int) bool {
	return findSubsetWith(t.root, s, attr)
}

func findSubsetWith(n *node, s fdset.AttrSet, attr int) bool {
	if n == nil || !n.union.Has(attr) || !n.inter.IsSubsetOf(s) {
		return false
	}
	if n.isLeaf() {
		// The leaf's set is its union (has attr) and its inter (⊆ s).
		return true
	}
	if n.attr == attr {
		// Sets containing attr live only in the right subtree.
		return findSubsetWith(n.right, s, attr)
	}
	if !s.Has(n.attr) {
		return findSubsetWith(n.left, s, attr)
	}
	return findSubsetWith(n.left, s, attr) || findSubsetWith(n.right, s, attr)
}

// RemoveSubsets deletes every stored set Y ⊆ s and returns the removed
// sets. Ncover construction uses it to discard generalizations of a newly
// added non-FD.
func (t *Tree) RemoveSubsets(s fdset.AttrSet) []fdset.AttrSet {
	return t.removeSubsetsInto(s, nil)
}

// removeSubsetsInto is RemoveSubsets appending the removed sets to out,
// so callers with a reusable buffer allocate nothing.
func (t *Tree) removeSubsetsInto(s fdset.AttrSet, out []fdset.AttrSet) []fdset.AttrSet {
	from := len(out)
	t.root, _ = t.removeSubsets(t.root, s, &out)
	t.size -= len(out) - from
	for _, y := range out[from:] {
		delete(t.members, y)
	}
	return out
}

// removeSubsets unlinks every stored Y ⊆ s below n, appending each to
// *out and recycling the unlinked nodes. It returns the subtree's new
// root and whether anything below n was removed: only the paths that
// lost a set re-derive their aggregates.
func (t *Tree) removeSubsets(n *node, s fdset.AttrSet, out *[]fdset.AttrSet) (*node, bool) {
	if n == nil || !n.inter.IsSubsetOf(s) {
		return n, false
	}
	if n.isLeaf() {
		// inter is the leaf's own set, so it is a subset of s.
		*out = append(*out, n.set())
		t.recycle(n)
		return nil, true
	}
	var changedL, changedR bool
	n.left, changedL = t.removeSubsets(n.left, s, out)
	if s.Has(n.attr) {
		n.right, changedR = t.removeSubsets(n.right, s, out)
	}
	if !changedL && !changedR {
		return n, false
	}
	return t.repair(n), true
}

// repair restores internal node n after a removal below it: a node that
// lost a whole side is replaced by the other side (or vanishes) and goes
// on the free list; otherwise its aggregates are re-derived.
func (t *Tree) repair(n *node) *node {
	var keep *node
	switch {
	case n.left == nil:
		keep = n.right
	case n.right == nil:
		keep = n.left
	default:
		n.recompute()
		return n
	}
	t.recycle(n)
	return keep
}

// Remove deletes the exact set s, reporting whether it was present.
func (t *Tree) Remove(s fdset.AttrSet) bool {
	if _, ok := t.members[s]; !ok {
		return false
	}
	t.root = t.remove(t.root, s)
	t.size--
	delete(t.members, s)
	return true
}

// remove unlinks the leaf of stored set s from the subtree rooted at n.
// The descent follows s's split decisions, which is the path Add placed
// its leaf on.
func (t *Tree) remove(n *node, s fdset.AttrSet) *node {
	if n.isLeaf() {
		if n.set() != s {
			panic("cover: stored set is not on its descent path")
		}
		t.recycle(n)
		return nil
	}
	if s.Has(n.attr) {
		n.right = t.remove(n.right, s)
	} else {
		n.left = t.remove(n.left, s)
	}
	return t.repair(n)
}

// ForEach visits every stored set; it stops early when fn returns false.
func (t *Tree) ForEach(fn func(fdset.AttrSet) bool) {
	forEach(t.root, fn)
}

func forEach(n *node, fn func(fdset.AttrSet) bool) bool {
	if n == nil {
		return true
	}
	if n.isLeaf() {
		return fn(n.set())
	}
	return forEach(n.left, fn) && forEach(n.right, fn)
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
