package cover

import (
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
