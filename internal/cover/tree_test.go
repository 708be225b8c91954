package cover

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"eulerfd/internal/fdset"
)

func randSet(r *rand.Rand, universe int) fdset.AttrSet {
	var s fdset.AttrSet
	for a := 0; a < universe; a++ {
		if r.Intn(3) == 0 {
			s.Add(a)
		}
	}
	return s
}

// naiveFamily mirrors Tree with linear scans.
type naiveFamily struct{ sets []fdset.AttrSet }

func (f *naiveFamily) add(s fdset.AttrSet) bool {
	for _, x := range f.sets {
		if x == s {
			return false
		}
	}
	f.sets = append(f.sets, s)
	return true
}

func (f *naiveFamily) remove(s fdset.AttrSet) bool {
	for i, x := range f.sets {
		if x == s {
			f.sets = append(f.sets[:i], f.sets[i+1:]...)
			return true
		}
	}
	return false
}

func (f *naiveFamily) containsSuperset(s fdset.AttrSet) bool {
	for _, x := range f.sets {
		if s.IsSubsetOf(x) {
			return true
		}
	}
	return false
}

func (f *naiveFamily) containsSubset(s fdset.AttrSet) bool {
	for _, x := range f.sets {
		if x.IsSubsetOf(s) {
			return true
		}
	}
	return false
}

func (f *naiveFamily) removeSubsets(s fdset.AttrSet) []fdset.AttrSet {
	var removed []fdset.AttrSet
	keep := f.sets[:0]
	for _, x := range f.sets {
		if x.IsSubsetOf(s) {
			removed = append(removed, x)
		} else {
			keep = append(keep, x)
		}
	}
	f.sets = keep
	return removed
}

func sortSets(ss []fdset.AttrSet) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i], ss[j]
		ai, bi := a.First(), b.First()
		for ai >= 0 && bi >= 0 {
			if ai != bi {
				return ai < bi
			}
			ai, bi = a.NextAfter(ai), b.NextAfter(bi)
		}
		return ai < 0 && bi >= 0
	})
}

func TestTreeRunningExample(t *testing.T) {
	// Figure 4: RHS = Name, non-FD LHSs AMB, MBG, BG (specialized), AG.
	a, b, g, m := 1, 2, 3, 4
	tree := NewTree(16, nil)
	tree.Add(fdset.NewAttrSet(a, m, b))
	tree.Add(fdset.NewAttrSet(m, b, g))
	if !tree.ContainsSuperset(fdset.NewAttrSet(b, g)) {
		t.Error("BG should be specialized by MBG")
	}
	tree.Add(fdset.NewAttrSet(a, g))
	if tree.Size() != 3 {
		t.Fatalf("size = %d, want 3", tree.Size())
	}
	for _, s := range []fdset.AttrSet{
		fdset.NewAttrSet(a, m, b), fdset.NewAttrSet(m, b, g), fdset.NewAttrSet(a, g),
	} {
		if !tree.Contains(s) {
			t.Errorf("missing %v", s)
		}
	}
	if tree.Contains(fdset.NewAttrSet(b, g)) {
		t.Error("BG should not be stored")
	}
}

func TestTreeDuplicates(t *testing.T) {
	tree := NewTree(16, nil)
	s := fdset.NewAttrSet(1, 2)
	if !tree.Add(s) || tree.Add(s) {
		t.Error("duplicate Add semantics wrong")
	}
	if tree.Size() != 1 {
		t.Errorf("size = %d", tree.Size())
	}
	if !tree.Remove(s) || tree.Remove(s) {
		t.Error("Remove semantics wrong")
	}
	if tree.Size() != 0 || tree.Contains(s) {
		t.Error("tree not empty after removal")
	}
}

func TestTreeEmptySetMembership(t *testing.T) {
	tree := NewTree(16, nil)
	tree.Add(fdset.EmptySet())
	if !tree.Contains(fdset.EmptySet()) {
		t.Error("empty set not stored")
	}
	if !tree.ContainsSubset(fdset.NewAttrSet(3)) {
		t.Error("empty set is a subset of everything")
	}
	if tree.ContainsSuperset(fdset.NewAttrSet(3)) {
		t.Error("empty set is not a superset of {3}")
	}
	if !tree.ContainsSuperset(fdset.EmptySet()) {
		t.Error("empty set is a superset of itself")
	}
}

func TestTreeAgainstNaiveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		universe := 4 + r.Intn(10)
		tree := NewTree(universe, nil)
		naive := &naiveFamily{}
		for op := 0; op < 300; op++ {
			s := randSet(r, universe)
			switch r.Intn(6) {
			case 0, 1, 2: // add
				if got, want := tree.Add(s), naive.add(s); got != want {
					t.Fatalf("Add(%v) = %v, want %v", s, got, want)
				}
			case 3: // exact remove
				if got, want := tree.Remove(s), naive.remove(s); got != want {
					t.Fatalf("Remove(%v) = %v, want %v", s, got, want)
				}
			case 4: // remove subsets
				got := tree.RemoveSubsets(s)
				want := naive.removeSubsets(s)
				sortSets(got)
				sortSets(want)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("RemoveSubsets(%v) = %v, want %v", s, got, want)
				}
			case 5: // queries
				if got, want := tree.ContainsSuperset(s), naive.containsSuperset(s); got != want {
					t.Fatalf("ContainsSuperset(%v) = %v, want %v", s, got, want)
				}
				if got, want := tree.ContainsSubset(s), naive.containsSubset(s); got != want {
					t.Fatalf("ContainsSubset(%v) = %v, want %v", s, got, want)
				}
				if y, ok := tree.FindSubset(s); ok != naive.containsSubset(s) {
					t.Fatalf("FindSubset(%v) ok = %v", s, ok)
				} else if ok && !y.IsSubsetOf(s) {
					t.Fatalf("FindSubset returned non-subset %v of %v", y, s)
				}
			}
			if tree.Size() != len(naive.sets) {
				t.Fatalf("size drift: %d vs %d", tree.Size(), len(naive.sets))
			}
		}
		got, want := tree.Sets(), append([]fdset.AttrSet(nil), naive.sets...)
		sortSets(got)
		sortSets(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("final contents diverge")
		}
	}
}

func TestTreeRankChangesSplitsNotSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	universe := 8
	rank := make([]int, universe)
	for i := range rank {
		rank[i] = universe - i // reversed priority
	}
	tree := NewTree(universe, rank)
	naive := &naiveFamily{}
	for op := 0; op < 400; op++ {
		s := randSet(r, universe)
		tree.Add(s)
		naive.add(s)
	}
	for op := 0; op < 200; op++ {
		s := randSet(r, universe)
		if tree.ContainsSuperset(s) != naive.containsSuperset(s) ||
			tree.ContainsSubset(s) != naive.containsSubset(s) {
			t.Fatalf("ranked tree query mismatch on %v", s)
		}
	}
}

func TestTreeForEachEarlyStop(t *testing.T) {
	tree := NewTree(16, nil)
	for i := 0; i < 10; i++ {
		tree.Add(fdset.NewAttrSet(i))
	}
	n := 0
	tree.ForEach(func(fdset.AttrSet) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("ForEach visited %d, want 3", n)
	}
}

func TestContainsSubsetWithAttrAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for iter := 0; iter < 30; iter++ {
		universe := 5 + r.Intn(8)
		tree := NewTree(universe, nil)
		naive := &naiveFamily{}
		for i := 0; i < 150; i++ {
			s := randSet(r, universe)
			tree.Add(s)
			naive.add(s)
		}
		for q := 0; q < 200; q++ {
			s := randSet(r, universe)
			attr := r.Intn(universe)
			want := false
			for _, x := range naive.sets {
				if x.Has(attr) && x.IsSubsetOf(s) {
					want = true
					break
				}
			}
			if got := tree.ContainsSubsetWithAttr(s, attr); got != want {
				t.Fatalf("ContainsSubsetWithAttr(%v, %d) = %v, want %v", s, attr, got, want)
			}
		}
	}
}

// TestTreeWidthContract builds trees at the last one-word width and the
// first two-word one and probes each with sets one attribute past its
// width: storing one panics, exact and superset queries answer false,
// and subset queries and RemoveSubsets answer from the probe's first mw
// words, as the reference family does.
func TestTreeWidthContract(t *testing.T) {
	for _, ncols := range []int{64, 65} {
		tree := NewTree(ncols, nil)
		over := 64 * tree.mw // the first attribute the tree cannot hold
		edge := ncols - 1
		ref := &naiveFamily{}
		for _, s := range []fdset.AttrSet{
			fdset.NewAttrSet(0, edge), fdset.NewAttrSet(1, 2), fdset.NewAttrSet(edge),
			fdset.NewAttrSet(0, 1, 63), fdset.NewAttrSet(2, 63),
		} {
			tree.Add(s)
			ref.add(s)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ncols %d: Add of attribute %d did not panic", ncols, over)
				}
			}()
			tree.Add(fdset.NewAttrSet(0, over))
		}()

		probes := []fdset.AttrSet{fdset.NewAttrSet(over), fdset.FullSet(over + 1)}
		for _, s := range ref.sets {
			probes = append(probes, s.With(over))
		}
		for _, q := range probes {
			if tree.Contains(q) || tree.ContainsSuperset(q) || tree.Remove(q) {
				t.Errorf("ncols %d: Contains, ContainsSuperset or Remove of %v answered true", ncols, q)
			}
			if got, want := tree.ContainsSubset(q), ref.containsSubset(q); got != want {
				t.Errorf("ncols %d: ContainsSubset(%v) = %v, want %v", ncols, q, got, want)
			}
			if y, ok := tree.FindSubset(q); ok != ref.containsSubset(q) || ok && (!y.IsSubsetOf(q) || !tree.Contains(y)) {
				t.Errorf("ncols %d: FindSubset(%v) = %v, %v", ncols, q, y, ok)
			}
			for _, a := range []int{0, 63, edge, over} {
				want := false
				for _, y := range ref.sets {
					want = want || y.Has(a) && y.IsSubsetOf(q)
				}
				if got := tree.ContainsSubsetWithAttr(q, a); got != want {
					t.Errorf("ncols %d: ContainsSubsetWithAttr(%v, %d) = %v, want %v", ncols, q, a, got, want)
				}
			}
		}
		if tree.Size() != len(ref.sets) {
			t.Fatalf("ncols %d: Size() = %d after wider probes, want %d", ncols, tree.Size(), len(ref.sets))
		}
		q := fdset.NewAttrSet(0, 1, 2, 63, over)
		got, want := tree.RemoveSubsets(q), ref.removeSubsets(q)
		sortSets(got)
		sortSets(want)
		if len(want) == 0 || !reflect.DeepEqual(got, want) {
			t.Errorf("ncols %d: RemoveSubsets(%v) = %v, want %v", ncols, q, got, want)
		}
		checkStructure(t, tree)
	}
}

// quickFamily is a generatable family of sets over a 12-attr universe for
// testing/quick properties.
type quickFamily []fdset.AttrSet

func (quickFamily) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(30)
	f := make(quickFamily, n)
	for i := range f {
		f[i] = randSet(r, 12)
	}
	return reflect.ValueOf(f)
}

// quickSet wraps an AttrSet so testing/quick can generate it in this
// package (AttrSet's fields are unexported).
type quickSet struct{ S fdset.AttrSet }

func (quickSet) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickSet{S: randSet(r, 12)})
}

func TestTreeQuickProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	// Superset query agrees with linear scan, on arbitrary families.
	if err := quick.Check(func(f quickFamily, qp quickSet) bool {
		probe := qp.S
		tree := NewTree(12, nil)
		for _, s := range f {
			tree.Add(s)
		}
		want := false
		for _, s := range tree.Sets() {
			if probe.IsSubsetOf(s) {
				want = true
				break
			}
		}
		return tree.ContainsSuperset(probe) == want
	}, cfg); err != nil {
		t.Error(err)
	}
	// Add is idempotent and size equals the number of distinct sets.
	if err := quick.Check(func(f quickFamily) bool {
		tree := NewTree(12, nil)
		distinct := map[fdset.AttrSet]struct{}{}
		for _, s := range f {
			tree.Add(s)
			tree.Add(s)
			distinct[s] = struct{}{}
		}
		return tree.Size() == len(distinct)
	}, cfg); err != nil {
		t.Error(err)
	}
	// RemoveSubsets leaves exactly the non-subsets.
	if err := quick.Check(func(f quickFamily, qp quickSet) bool {
		probe := qp.S
		tree := NewTree(12, nil)
		for _, s := range f {
			tree.Add(s)
		}
		tree.RemoveSubsets(probe)
		ok := true
		tree.ForEach(func(s fdset.AttrSet) bool {
			if s.IsSubsetOf(probe) {
				ok = false
				return false
			}
			return true
		})
		return ok && !tree.ContainsSubset(probe)
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestPCoverQuickAntichain(t *testing.T) {
	// After any sequence of inversions the cover is an antichain and no
	// candidate is a subset of any inverted non-FD LHS.
	cfg := &quick.Config{MaxCount: 100}
	if err := quick.Check(func(f quickFamily) bool {
		const m = 12
		p := NewPCover(m, nil)
		var inverted []fdset.AttrSet
		for i, lhs := range f {
			rhs := i % m
			if lhs.Has(rhs) {
				lhs.Remove(rhs)
			}
			p.Invert(fdset.FD{LHS: lhs, RHS: rhs})
			if rhs == 0 {
				inverted = append(inverted, lhs)
			}
		}
		tree := p.Tree(0)
		sets := tree.Sets()
		for i, a := range sets {
			for j, b := range sets {
				if i != j && a.IsSubsetOf(b) {
					return false
				}
			}
			for _, bad := range inverted {
				if a.IsSubsetOf(bad) {
					return false
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
