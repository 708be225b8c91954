package cover

import (
	"bytes"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"eulerfd/internal/fdset"
)

// fuzzNonFDs decodes a byte stream into a bounded batch of non-trivial
// non-FDs over ncols attributes: each pair of bytes is (LHS mask, RHS).
func fuzzNonFDs(data []byte, ncols int) []fdset.FD {
	const maxFDs = 64
	var out []fdset.FD
	for i := 0; i+1 < len(data) && len(out) < maxFDs; i += 2 {
		rhs := int(data[i+1]) % ncols
		var lhs fdset.AttrSet
		for b := 0; b < ncols; b++ {
			if data[i]&(1<<b) != 0 && b != rhs {
				lhs.Add(b)
			}
		}
		out = append(out, fdset.FD{LHS: lhs, RHS: rhs})
	}
	return out
}

// FuzzTreeInsertInvert drives arbitrary non-FD batches through the
// negative cover and both inversion variants, checking the structural
// invariants the discovery loop depends on: stored LHS sets form an
// antichain, every observed non-FD stays covered, and Invert agrees with
// the paper-literal InvertLiteral reference.
func FuzzTreeInsertInvert(f *testing.F) {
	f.Add([]byte{0b0011, 2, 0b0111, 2, 0b0001, 0})
	f.Add([]byte{0xff, 0, 0x0f, 1, 0xf0, 1, 0x55, 3})
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		const ncols = 8
		nonFDs := fuzzNonFDs(data, ncols)
		if len(nonFDs) == 0 {
			t.Skip()
		}

		nc := NewNCover(ncols, nil)
		for _, nf := range nonFDs {
			nc.Add(nf)
		}
		total := 0
		for rhs := 0; rhs < ncols; rhs++ {
			sets := nc.Tree(rhs).Sets()
			total += len(sets)
			for i, a := range sets {
				for j, b := range sets {
					if i != j && a.IsSubsetOf(b) {
						t.Fatalf("rhs %d: stored LHSs not an antichain: %v ⊆ %v", rhs, a, b)
					}
				}
			}
			for _, s := range sets {
				if !nc.Tree(rhs).Contains(s) {
					t.Fatalf("rhs %d: Sets() returned %v but Contains is false", rhs, s)
				}
			}
		}
		if total != nc.Size() {
			t.Fatalf("Size() = %d, trees hold %d sets", nc.Size(), total)
		}
		for _, nf := range nonFDs {
			if !nc.Covers(nf) {
				t.Fatalf("cover lost observed non-FD %v", nf)
			}
			// Maximality: the covering witness must be a stored superset.
			found := false
			for _, s := range nc.Tree(nf.RHS).Sets() {
				if nf.LHS.IsSubsetOf(s) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("Covers(%v) true but no stored superset", nf)
			}
		}

		// Both inversion variants must refine the positive cover to the
		// same candidate set (the optimized Invert skips churn, not FDs).
		pcFast := NewPCover(ncols, nil)
		pcRef := NewPCover(ncols, nil)
		for _, nf := range nonFDs {
			pcFast.Invert(nf)
			pcRef.InvertLiteral(nf)
		}
		if !pcFast.FDs().Equal(pcRef.FDs()) {
			t.Fatalf("Invert and InvertLiteral diverged:\nfast: %v\nref:  %v",
				pcFast.FDs().Slice(), pcRef.FDs().Slice())
		}
		for rhs := 0; rhs < ncols; rhs++ {
			cands := pcFast.Tree(rhs).Sets()
			for i, a := range cands {
				for j, b := range cands {
					if i != j && a.IsSubsetOf(b) {
						t.Fatalf("rhs %d: candidates not minimal: %v ⊆ %v", rhs, a, b)
					}
				}
			}
			// Consistency: every surviving candidate escapes every
			// inverted non-FD with this RHS.
			for _, nf := range nonFDs {
				if nf.RHS != rhs {
					continue
				}
				for _, c := range cands {
					if c.IsSubsetOf(nf.LHS) {
						t.Fatalf("candidate %v→%d still invalidated by non-FD %v", c, rhs, nf)
					}
				}
			}
		}
	})
}

// fuzzWidth embeds a fuzz target's small attribute universe in a cover
// of more columns: universe attribute b is attribute off+b, and every
// non-FD LHS the target builds also holds pad, the cover's attributes
// outside the universe, so inversion grows candidates only inside it.
// The narrow width is the identity. The wide one puts the universe across
// the boundary of words 0 and 1 of a 72-column, two-word cover, so the
// multi-word tree path is fuzzed as well.
type fuzzWidth struct{ off, ncols int }

var fuzzWidths = []fuzzWidth{{0, 0}, {60, 72}}

// attr returns the cover attribute of universe attribute b.
func (w fuzzWidth) attr(b int) int { return w.off + b }

// cols returns the column count of the cover embedding an n-attribute
// universe.
func (w fuzzWidth) cols(n int) int { return max(w.off+n, w.ncols) }

// set returns the set of universe mask m: bit b is attribute off+b.
func (w fuzzWidth) set(m uint64) fdset.AttrSet {
	var s fdset.AttrSet
	for ; m != 0; m &= m - 1 {
		s.Add(w.attr(bits.TrailingZeros64(m)))
	}
	return s
}

// pad returns the cover's attributes outside an n-attribute universe.
func (w fuzzWidth) pad(n int) fdset.AttrSet {
	return fdset.FullSet(w.cols(n)).Diff(w.set(1<<n - 1))
}

// FuzzTreeOps drives one tree of an 8-attribute universe through an
// interleaved sequence of Add, Remove, RemoveSubsets and Invert (as the
// tree of universe attribute 7 of a positive cover), at every fuzzWidth,
// checking every step against a slice-based reference family and
// re-deriving the trie's structure from its leaves. Each op is two bytes:
// the kind (byte mod 4) and a universe mask. Invert runs only while the
// family is an antichain — the positive-cover precondition; raw Adds can
// break it, and Invert ops are then skipped until removals restore it.
func FuzzTreeOps(f *testing.F) {
	const (
		opAdd = iota
		opRemove
		opRemoveSubsets
		opInvert
	)
	f.Add([]byte{opInvert, 0b0011, opInvert, 0b0101, opInvert, 0b1110, opRemoveSubsets, 0b0111})
	f.Add([]byte{opAdd, 0x0f, opAdd, 0xf0, opAdd, 0x3c, opRemove, 0x0f, opRemoveSubsets, 0xff, opInvert, 0x7f})
	f.Add([]byte{opInvert, 0x7f, opInvert, 0x3f, opInvert, 0x1f, opRemove, 0x40, opAdd, 0x01, opInvert, 0x55})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			universe = 8
			maxOps   = 48
		)
		for _, w := range fuzzWidths {
			ncols, rhs, pad := w.cols(universe), w.attr(universe-1), w.pad(universe)
			p := NewPCover(ncols, nil)
			tree := p.Tree(rhs)
			ref := &naiveFamily{sets: []fdset.AttrSet{fdset.EmptySet()}}
			for i := 0; i+1 < len(data) && i/2 < maxOps; i += 2 {
				s := w.set(uint64(data[i+1]))
				switch data[i] % 4 {
				case opAdd:
					if got, want := tree.Add(s), ref.add(s); got != want {
						t.Fatalf("width %v, op %d: Add(%v) = %v, want %v", w, i/2, s, got, want)
					}
				case opRemove:
					if got, want := tree.Remove(s), ref.remove(s); got != want {
						t.Fatalf("width %v, op %d: Remove(%v) = %v, want %v", w, i/2, s, got, want)
					}
				case opRemoveSubsets:
					got, want := tree.RemoveSubsets(s), ref.removeSubsets(s)
					sortSets(got)
					sortSets(want)
					if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
						t.Fatalf("width %v, op %d: RemoveSubsets(%v) = %v, want %v", w, i/2, s, got, want)
					}
				case opInvert:
					if !ref.antichain() {
						continue
					}
					lhs := s.Union(pad).Without(rhs)
					if got, want := p.Invert(fdset.FD{LHS: lhs, RHS: rhs}), ref.invert(lhs, rhs, ncols); got != want {
						t.Fatalf("width %v, op %d: Invert(%v) added %d, want %d", w, i/2, lhs, got, want)
					}
				}
				checkTreeAgainst(t, tree, ref, w, s)
			}
		}
	})
}

// antichain reports whether no stored set is a proper subset of another.
func (f *naiveFamily) antichain() bool {
	for _, a := range f.sets {
		for _, b := range f.sets {
			if a.IsProperSubsetOf(b) {
				return false
			}
		}
	}
	return true
}

// invert is the reference of PCover.Invert on an antichain: drop every
// stored subset of lhs, then extend each by every attribute outside
// lhs ∪ {rhs} unless a stored set is already a subset of the extension.
func (f *naiveFamily) invert(lhs fdset.AttrSet, rhs, ncols int) int {
	added := 0
	for _, general := range f.removeSubsets(lhs) {
		for a := 0; a < ncols; a++ {
			if a == rhs || lhs.Has(a) {
				continue
			}
			if c := general.With(a); !f.containsSubset(c) {
				f.add(c)
				added++
			}
		}
	}
	return added
}

// checkTreeAgainst compares the tree's family and queries (Contains,
// ContainsSuperset, FindSubset, ContainsSubsetWithAttr) with the
// reference, then re-derives its structure from the leaves. probe is the
// step's own set; its complement in the universe of w, ∅, the full
// universe and every stored set are probed too, each also widened by the
// first attribute past the tree's width, which no stored set can hold.
func checkTreeAgainst(t *testing.T, tree *Tree, ref *naiveFamily, w fuzzWidth, probe fdset.AttrSet) {
	t.Helper()
	got, want := tree.Sets(), append([]fdset.AttrSet(nil), ref.sets...)
	sortSets(got)
	sortSets(want)
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("Sets() = %v, want %v", got, want)
	}
	if tree.Size() != len(want) {
		t.Fatalf("Size() = %d, want %d", tree.Size(), len(want))
	}
	over := 64 * tree.mw
	full := w.set(0xff)
	probes := append([]fdset.AttrSet{probe, full.Diff(probe), fdset.EmptySet(), full}, want...)
	for _, q := range probes {
		probes = append(probes, q.With(over))
	}
	for _, q := range probes {
		if got, want := tree.Contains(q), slices.Contains(ref.sets, q); got != want {
			t.Fatalf("Contains(%v) = %v, want %v", q, got, want)
		}
		if got, want := tree.ContainsSuperset(q), ref.containsSuperset(q); got != want {
			t.Fatalf("ContainsSuperset(%v) = %v, want %v", q, got, want)
		}
		y, ok := tree.FindSubset(q)
		if ok != ref.containsSubset(q) {
			t.Fatalf("FindSubset(%v) found = %v, want %v", q, ok, !ok)
		}
		if ok && (!y.IsSubsetOf(q) || !slices.Contains(ref.sets, y)) {
			t.Fatalf("FindSubset(%v) = %v, not a stored subset", q, y)
		}
		for b := 0; b <= 8; b++ {
			a := w.attr(b)
			if b == 8 {
				a = over
			}
			want := slices.ContainsFunc(ref.sets, func(y fdset.AttrSet) bool { return y.Has(a) && y.IsSubsetOf(q) })
			if got := tree.ContainsSubsetWithAttr(q, a); got != want {
				t.Fatalf("ContainsSubsetWithAttr(%v, %d) = %v, want %v", q, a, got, want)
			}
		}
	}
	checkStructure(t, tree)
}

// checkStructure re-derives every internal node's inter and union from
// the leaves below it, checks the split invariant (leaves right of a
// split contain its attribute, leaves left do not) and the membership
// table, and checks that every arena node other than the sentinel is
// either linked into the tree exactly once or on the free list.
func checkStructure(t *testing.T, tree *Tree) {
	t.Helper()
	linked := make(map[int32]bool)
	var leaves []fdset.AttrSet
	var walk func(n int32) (inter, union fdset.AttrSet)
	walk = func(n int32) (inter, union fdset.AttrSet) {
		if n <= 0 || int(n) >= len(tree.nodes) || linked[n] {
			t.Fatalf("node %d out of the arena or linked twice", n)
		}
		linked[n] = true
		nd := tree.nodes[n]
		inter, union = fdset.FromWords(tree.inter(n)), fdset.FromWords(tree.union(n))
		if !tree.fits(union) {
			t.Fatalf("node %d: union %v wider than %d words", n, union, tree.mw)
		}
		if nd.attr < 0 {
			if inter != union || nd.left != 0 || nd.right != 0 {
				t.Fatalf("leaf %d: inter %v, union %v, children %d/%d", n, inter, union, nd.left, nd.right)
			}
			leaves = append(leaves, inter)
			return inter, union
		}
		if nd.left == 0 || nd.right == 0 {
			t.Fatalf("internal node %d (attr %d) has a nil child", n, nd.attr)
		}
		li, lu := walk(nd.left)
		ri, ru := walk(nd.right)
		if a := int(nd.attr); lu.Has(a) || !ri.Has(a) {
			t.Fatalf("split on %d violated: left union %v, right inter %v", a, lu, ri)
		}
		if want, wantU := li.Intersect(ri), lu.Union(ru); inter != want || union != wantU {
			t.Fatalf("stale aggregate at split %d: inter %v union %v, leaves give %v %v", nd.attr, inter, union, want, wantU)
		}
		return inter, union
	}
	if tree.root != 0 {
		walk(tree.root)
	}
	if members := tree.members.Len(); len(leaves) != tree.Size() || members != tree.Size() {
		t.Fatalf("%d leaves, %d members, Size() = %d", len(leaves), members, tree.Size())
	}
	for _, s := range leaves {
		if !tree.Contains(s) {
			t.Fatalf("leaf %v missing from the membership table", s)
		}
	}
	free := make(map[int32]bool)
	for n := tree.free; n != 0; n = tree.nodes[n].left {
		if linked[n] {
			t.Fatalf("free-list node %d is still linked in the tree", n)
		}
		if free[n] || tree.nodes[n].right != 0 {
			t.Fatalf("free list corrupt at node %d", n)
		}
		free[n] = true
	}
	if len(linked)+len(free) != len(tree.nodes)-1 {
		t.Fatalf("arena of %d nodes: %d linked, %d free", len(tree.nodes)-1, len(linked), len(free))
	}
	if len(tree.aggs) != 2*tree.mw*len(tree.nodes) {
		t.Fatalf("%d aggregate words for %d nodes at %d words", len(tree.aggs), len(tree.nodes), tree.mw)
	}
}

// FuzzPCoverRetire drives PCover.Retire the way incremental maintenance
// does and holds it to Rebuild, at every fuzzWidth. The input decodes as:
// byte 0 the universe size (1–10), byte 1 the rounds (1–3), bytes 2–9 a
// seed. The seed draws a starting non-FD antichain per RHS; each round
// then admits random agree sets and inverts them forward, removes random
// stored non-FDs, and re-admits alive subsets of the removed sets in
// descending cardinality (the order NCover.Readmit needs to keep the
// antichain), re-seeding ∅ into some emptied trees. After every RHS that
// lost a non-FD is patched, each tree must hold exactly what Rebuild
// derives from the final negative cover, and pass checkStructure. Each
// round then re-derives one RHS's tree with Rebuild and removes and
// re-adds one stored set of another twice, which leaves the cover as it
// was. The read-out (FDs) runs before the admissions, after their
// inversion, after the patches and once after the last round, and must
// equal NewSet over the trees' sets, byte for byte, and after the
// patches Rebuild's read-out too.
func FuzzPCoverRetire(f *testing.F) {
	for seed := byte(1); seed <= 4; seed++ {
		f.Add([]byte{3 + seed, seed, seed, 0, 0, 0, 0, 0, 0, 0})
		f.Add([]byte{9, 3, seed * 41, seed, 7, 0, 0, 0, 0, 0})
	}
	f.Add([]byte{0, 1, 5, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, w := range fuzzWidths {
			fuzzRetire(t, w, data)
		}
	})
}

// fuzzRetire is FuzzPCoverRetire's body at width w. Universe attributes
// are indexed b; the cover's attribute of b is w.attr(b), and every LHS
// holds w's pad.
func fuzzRetire(t *testing.T, w fuzzWidth, data []byte) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%10
	ncols, pad := w.cols(n), w.pad(n)
	rounds := 1 + int(at(1))%3
	var seed int64
	for i := 0; i < 8; i++ {
		seed |= int64(at(2+i)) << (8 * i)
	}
	r := rand.New(rand.NewSource(seed))
	// draw returns a random LHS for universe attribute b's RHS, dense or
	// sparse by the roll.
	draw := func(b int) fdset.AttrSet {
		s := pad
		den := 2 + r.Intn(3)
		for a := 0; a < n; a++ {
			if a != b && r.Intn(den) != 0 {
				s.Add(w.attr(a))
			}
		}
		return s
	}
	subsetOf := func(s fdset.AttrSet) fdset.AttrSet {
		sub := pad
		for a := 0; a < n; a++ {
			if s.Has(w.attr(a)) && r.Intn(3) != 0 {
				sub.Add(w.attr(a))
			}
		}
		return sub
	}

	nc := NewNCover(ncols, nil)
	pc := NewPCover(ncols, nil)
	// readOut holds pc's read-out to a fresh NewSet over its trees' sets
	// and returns it.
	readOut := func(stage string, round int) *fdset.Set {
		got, want := pc.FDs(), treeSets(pc)
		gotJSON, _ := got.MarshalJSON()
		wantJSON, _ := want.MarshalJSON()
		if !got.Equal(want) || !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("width %v, round %d, %s: FDs() = %s\nNewSet of the trees' sets = %s", w, round, stage, gotJSON, wantJSON)
		}
		return got
	}
	for b := 0; b < n; b++ {
		rhs := w.attr(b)
		if r.Intn(4) == 0 {
			nc.Add(fdset.FD{LHS: pad, RHS: rhs})
		}
		for k := r.Intn(8); k > 0; k-- {
			nc.Add(fdset.FD{LHS: draw(b), RHS: rhs})
		}
		for _, lhs := range nc.Tree(rhs).Sets() {
			pc.Invert(fdset.FD{LHS: lhs, RHS: rhs})
		}
	}

	for round := 0; round < rounds; round++ {
		readOut("before the admissions", round)
		var admissions []fdset.AttrSet
		for k := r.Intn(3 * n); k > 0; k-- {
			admissions = append(admissions, draw(r.Intn(n)))
		}
		// Invert the admissions forward before any removal: Retire needs
		// the positive cover of the negative cover before the
		// retirements, and a removal can take a pending set with it.
		nc.Admit(admissions, nil)
		pc.InvertPending(nc, nil)
		readOut("after InvertPending", round)

		removed := make([][]fdset.AttrSet, n)
		for b := 0; b < n; b++ {
			rhs := w.attr(b)
			for _, lhs := range nc.Tree(rhs).Sets() {
				if r.Intn(3) == 0 && nc.RemoveLHS(rhs, lhs) {
					removed[b] = append(removed[b], lhs)
				}
			}
			var alive []fdset.AttrSet
			for _, m := range removed[b] {
				for k := r.Intn(4); k > 0; k-- {
					alive = append(alive, subsetOf(m))
				}
			}
			fdset.SortSetsDesc(alive)
			for _, lhs := range alive {
				nc.Readmit(rhs, lhs)
			}
			if len(removed[b]) > 0 && nc.Tree(rhs).Size() == 0 && r.Intn(2) == 0 {
				nc.Readmit(rhs, pad)
			}
		}

		ref := NewPCover(ncols, nil)
		for b := 0; b < n; b++ {
			rhs := w.attr(b)
			if len(removed[b]) > 0 {
				pc.Retire(rhs, removed[b], nc.Tree(rhs).Sets())
			}
			ref.Rebuild(rhs, nc.Tree(rhs).Sets())
			got, want := pc.Tree(rhs).Sets(), ref.Tree(rhs).Sets()
			sortSets(got)
			sortSets(want)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("width %v, round %d, rhs %d (removed %v, negative cover %v):\ngot  %v\nwant %v",
					w, round, rhs, removed[b], nc.Tree(rhs).Sets(), got, want)
			}
			checkStructure(t, pc.Tree(rhs))
		}
		if got, want := readOut("after Retire", round), ref.FDs(); !got.Equal(want) {
			t.Fatalf("width %v, round %d: FDs() = %v\nRebuild's FDs() = %v", w, round, got.Slice(), want.Slice())
		}

		// Changes that leave the cover as it is: a Rebuild resets its
		// tree, so the read-out must drop and re-merge every set, and a
		// set removed and re-added twice is in the last run once and in
		// the log twice.
		rhs := w.attr(r.Intn(n))
		pc.Rebuild(rhs, nc.Tree(rhs).Sets())
		rhs = w.attr(r.Intn(n))
		if sets := pc.Tree(rhs).Sets(); len(sets) > 0 {
			s := sets[r.Intn(len(sets))]
			for k := 0; k < 2; k++ {
				pc.Tree(rhs).Remove(s)
				pc.Tree(rhs).Add(s)
			}
		}
	}
	readOut("after the last round", rounds)
}

// treeSets returns NewSet over every set p's trees hold: the read-out
// PCover.FDs must equal.
func treeSets(p *PCover) *fdset.Set {
	var fds []fdset.FD
	for rhs, tree := range p.trees {
		for _, lhs := range tree.Sets() {
			fds = append(fds, fdset.FD{LHS: lhs, RHS: rhs})
		}
	}
	return fdset.NewSet(fds...)
}
