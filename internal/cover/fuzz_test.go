package cover

import (
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

// FuzzTreeOps drives one 8-column tree through an interleaved sequence of
// Add, Remove, RemoveSubsets and Invert (as the RHS-7 tree of a positive
// cover), checking every step against a slice-based reference family and
// re-deriving the trie's structure from its leaves. Each op is two bytes:
// the kind (byte mod 4) and an attribute mask. Invert runs only while the
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
			ncols  = 8
			rhs    = ncols - 1
			maxOps = 48
		)
		p := NewPCover(ncols, nil)
		tree := p.Tree(rhs)
		ref := &naiveFamily{sets: []fdset.AttrSet{fdset.EmptySet()}}
		for i := 0; i+1 < len(data) && i/2 < maxOps; i += 2 {
			s := fdset.FromWord(uint64(data[i+1]))
			switch data[i] % 4 {
			case opAdd:
				if got, want := tree.Add(s), ref.add(s); got != want {
					t.Fatalf("op %d: Add(%v) = %v, want %v", i/2, s, got, want)
				}
			case opRemove:
				if got, want := tree.Remove(s), ref.remove(s); got != want {
					t.Fatalf("op %d: Remove(%v) = %v, want %v", i/2, s, got, want)
				}
			case opRemoveSubsets:
				got, want := tree.RemoveSubsets(s), ref.removeSubsets(s)
				sortSets(got)
				sortSets(want)
				if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("op %d: RemoveSubsets(%v) = %v, want %v", i/2, s, got, want)
				}
			case opInvert:
				if !ref.antichain() {
					continue
				}
				lhs := s.Without(rhs)
				if got, want := p.Invert(fdset.FD{LHS: lhs, RHS: rhs}), ref.invert(lhs, rhs, ncols); got != want {
					t.Fatalf("op %d: Invert(%v) added %d, want %d", i/2, lhs, got, want)
				}
			}
			checkTreeAgainst(t, tree, ref, s)
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
// step's own set; its complement, ∅, the full set and every stored set
// are probed too.
func checkTreeAgainst(t *testing.T, tree *Tree, ref *naiveFamily, probe fdset.AttrSet) {
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
	full := fdset.FromWord(0xff)
	probes := append([]fdset.AttrSet{probe, full.Diff(probe), fdset.EmptySet(), full}, want...)
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
		for a := 0; a < 8; a++ {
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
// table, and checks that no node on the free list is still linked.
func checkStructure(t *testing.T, tree *Tree) {
	t.Helper()
	linked := make(map[*node]bool)
	var leaves []fdset.AttrSet
	var walk func(n *node) (inter, union fdset.AttrSet)
	walk = func(n *node) (inter, union fdset.AttrSet) {
		if linked[n] {
			t.Fatalf("node %p linked twice", n)
		}
		linked[n] = true
		if n.isLeaf() {
			if n.inter != n.union || n.left != nil || n.right != nil {
				t.Fatalf("leaf %p: inter %v, union %v, children %p/%p", n, n.inter, n.union, n.left, n.right)
			}
			leaves = append(leaves, n.set())
			return n.inter, n.union
		}
		if n.left == nil || n.right == nil {
			t.Fatalf("internal node %p (attr %d) has a nil child", n, n.attr)
		}
		li, lu := walk(n.left)
		ri, ru := walk(n.right)
		if lu.Has(n.attr) || !ri.Has(n.attr) {
			t.Fatalf("split on %d violated: left union %v, right inter %v", n.attr, lu, ri)
		}
		inter, union = li.Intersect(ri), lu.Union(ru)
		if n.inter != inter || n.union != union {
			t.Fatalf("stale aggregate at split %d: inter %v union %v, leaves give %v %v", n.attr, n.inter, n.union, inter, union)
		}
		return inter, union
	}
	if tree.root != nil {
		walk(tree.root)
	}
	if len(leaves) != tree.Size() || len(tree.members) != tree.Size() {
		t.Fatalf("%d leaves, %d members, Size() = %d", len(leaves), len(tree.members), tree.Size())
	}
	for _, s := range leaves {
		if !tree.Contains(s) {
			t.Fatalf("leaf %v missing from the membership table", s)
		}
	}
	free := make(map[*node]bool)
	for n := tree.free; n != nil; n = n.left {
		if linked[n] {
			t.Fatalf("free-list node %p is still linked in the tree", n)
		}
		if free[n] || n.right != nil {
			t.Fatalf("free list corrupt at node %p", n)
		}
		free[n] = true
	}
}

// FuzzPCoverRetire drives PCover.Retire the way incremental maintenance
// does and holds it to Rebuild. The input decodes as: byte 0 the column
// count (1–10), byte 1 the rounds (1–3), bytes 2–9 a seed. The seed
// draws a starting non-FD antichain per RHS; each round then admits
// random non-FDs, removes random stored ones, and re-admits alive
// subsets of the removed sets in descending cardinality (the order
// NCover.Readmit needs to keep the antichain), re-seeding ∅ into some
// emptied trees. After the pending admissions are inverted forward and
// every RHS that lost a non-FD is patched, each tree must hold exactly
// what Rebuild derives from the final negative cover, and pass
// checkStructure.
func FuzzPCoverRetire(f *testing.F) {
	for seed := byte(1); seed <= 4; seed++ {
		f.Add([]byte{3 + seed, seed, seed, 0, 0, 0, 0, 0, 0, 0})
		f.Add([]byte{9, 3, seed * 41, seed, 7, 0, 0, 0, 0, 0})
	}
	f.Add([]byte{0, 1, 5, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		ncols := 1 + int(at(0))%10
		rounds := 1 + int(at(1))%3
		var seed int64
		for i := 0; i < 8; i++ {
			seed |= int64(at(2+i)) << (8 * i)
		}
		r := rand.New(rand.NewSource(seed))
		// draw returns a random LHS for rhs, dense or sparse by the roll.
		draw := func(rhs int) fdset.AttrSet {
			var s fdset.AttrSet
			den := 2 + r.Intn(3)
			for a := 0; a < ncols; a++ {
				if a != rhs && r.Intn(den) != 0 {
					s.Add(a)
				}
			}
			return s
		}
		subsetOf := func(s fdset.AttrSet) fdset.AttrSet {
			var sub fdset.AttrSet
			s.ForEach(func(a int) bool {
				if r.Intn(3) != 0 {
					sub.Add(a)
				}
				return true
			})
			return sub
		}

		nc := NewNCover(ncols, nil)
		pc := NewPCover(ncols, nil)
		for rhs := 0; rhs < ncols; rhs++ {
			if r.Intn(4) == 0 {
				nc.Add(fdset.FD{RHS: rhs})
			}
			for k := r.Intn(8); k > 0; k-- {
				nc.Add(fdset.FD{LHS: draw(rhs), RHS: rhs})
			}
			for _, lhs := range nc.Tree(rhs).Sets() {
				pc.Invert(fdset.FD{LHS: lhs, RHS: rhs})
			}
		}

		for round := 0; round < rounds; round++ {
			var admissions []fdset.FD
			for k := r.Intn(3 * ncols); k > 0; k-- {
				rhs := r.Intn(ncols)
				admissions = append(admissions, fdset.FD{LHS: draw(rhs), RHS: rhs})
			}
			pending := make(map[fdset.FD]bool)
			_, events := nc.AddTrackedBatch(admissions, nil)
			for _, ev := range events {
				for _, lhs := range ev.Superseded {
					delete(pending, fdset.FD{LHS: lhs, RHS: ev.NonFD.RHS})
				}
				pending[ev.NonFD] = true
			}

			removed := make([][]fdset.AttrSet, ncols)
			for rhs := 0; rhs < ncols; rhs++ {
				for _, lhs := range nc.Tree(rhs).Sets() {
					if r.Intn(3) == 0 && nc.RemoveLHS(rhs, lhs) {
						removed[rhs] = append(removed[rhs], lhs)
					}
				}
				var alive []fdset.AttrSet
				for _, m := range removed[rhs] {
					for k := r.Intn(4); k > 0; k-- {
						alive = append(alive, subsetOf(m))
					}
				}
				fdset.SortSetsDesc(alive)
				for _, lhs := range alive {
					nc.Readmit(rhs, lhs)
				}
				if len(removed[rhs]) > 0 && nc.Tree(rhs).Size() == 0 && r.Intn(2) == 0 {
					nc.Readmit(rhs, fdset.EmptySet())
				}
			}

			forward := make([]fdset.FD, 0, len(pending))
			for f := range pending {
				forward = append(forward, f)
			}
			fdset.SortFDs(forward)
			pc.InvertAll(forward)
			ref := NewPCover(ncols, nil)
			for rhs := 0; rhs < ncols; rhs++ {
				if len(removed[rhs]) > 0 {
					pc.Retire(rhs, removed[rhs], nc.Tree(rhs).Sets())
				}
				ref.Rebuild(rhs, nc.Tree(rhs).Sets())
				got, want := pc.Tree(rhs).Sets(), ref.Tree(rhs).Sets()
				sortSets(got)
				sortSets(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d, rhs %d (removed %v, negative cover %v):\ngot  %v\nwant %v",
						round, rhs, removed[rhs], nc.Tree(rhs).Sets(), got, want)
				}
				checkStructure(t, pc.Tree(rhs))
			}
		}
	})
}
