package cover

import (
	"math/rand"
	"reflect"
	"testing"

	"eulerfd/internal/fdset"
)

func TestNCoverAddMinimizes(t *testing.T) {
	n := NewNCover(5, nil)
	a, b, g, m := 1, 2, 3, 4
	rhs := 0
	// Figure 4 sequence: ABM, BG, BGM, AG for RHS N.
	if !n.Add(fdset.NewFD([]int{a, b, m}, rhs)) {
		t.Error("first add should change cover")
	}
	if !n.Add(fdset.NewFD([]int{b, g}, rhs)) {
		t.Error("BG is not specialized yet")
	}
	if !n.Add(fdset.NewFD([]int{b, g, m}, rhs)) {
		t.Error("BGM should be added (it specializes BG)")
	}
	if n.Add(fdset.NewFD([]int{b, g}, rhs)) {
		t.Error("BG is now specialized by BGM, must be rejected")
	}
	if !n.Add(fdset.NewFD([]int{a, g}, rhs)) {
		t.Error("AG should be added")
	}
	if n.Size() != 3 {
		t.Fatalf("size = %d, want 3 (ABM, BGM, AG)", n.Size())
	}
	got := n.FDs()
	want := []fdset.FD{
		fdset.NewFD([]int{a, g}, rhs),
		fdset.NewFD([]int{a, b, m}, rhs),
		fdset.NewFD([]int{b, g, m}, rhs),
	}
	fdset.SortFDs(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("FDs = %v, want %v", got, want)
	}
	if !n.Covers(fdset.NewFD([]int{b, g}, rhs)) || n.Covers(fdset.NewFD([]int{a, b, g}, rhs)) {
		t.Error("Covers wrong")
	}
}

// TestAgreeSetRank holds the rank to its definition: the attributes in
// ascending frequency over the LHSs of the non-FDs the agree sets
// witness, ties in attribute order, computed here by expanding every
// agree set X into X ↛ a for each a ∉ X.
func TestAgreeSetRank(t *testing.T) {
	expanded := func(ncols int, agrees []fdset.AttrSet) []int {
		freq := make([]int, ncols)
		for _, x := range agrees {
			for a := 0; a < ncols; a++ {
				if x.Has(a) {
					continue
				}
				for _, b := range x.Attrs() {
					freq[b]++
				}
			}
		}
		rank := make([]int, ncols)
		for a := range rank {
			for b := range freq {
				if freq[b] < freq[a] || freq[b] == freq[a] && b < a {
					rank[a]++
				}
			}
		}
		return rank
	}
	// {0,1}, {1} and {1,2} over 4 columns witness 2, 3 and 2 non-FDs:
	// attribute 0 counts 2, 1 counts 7, 2 counts 2 and 3 none, so 0 and 2
	// tie and keep their order.
	agrees := []fdset.AttrSet{fdset.NewAttrSet(0, 1), fdset.NewAttrSet(1), fdset.NewAttrSet(1, 2)}
	if got, want := AgreeSetRank(4, agrees), []int{1, 3, 2, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("rank = %v, want %v", got, want)
	}
	if got := AgreeSetRank(3, nil); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("empty rank = %v", got)
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		ncols := 1 + r.Intn(9)
		agrees := make([]fdset.AttrSet, r.Intn(6))
		for i := range agrees {
			for a := 0; a < ncols; a++ {
				if r.Intn(2) == 0 {
					agrees[i].Add(a)
				}
			}
		}
		if got, want := AgreeSetRank(ncols, agrees), expanded(ncols, agrees); !reflect.DeepEqual(got, want) {
			t.Fatalf("AgreeSetRank(%d, %v) = %v, want %v", ncols, agrees, got, want)
		}
	}
}

func TestPCoverInitial(t *testing.T) {
	p := NewPCover(3, nil)
	if p.Size() != 3 {
		t.Fatalf("initial size = %d", p.Size())
	}
	fds := p.FDs()
	for rhs := 0; rhs < 3; rhs++ {
		if !fds.Contains(fdset.FD{LHS: fdset.EmptySet(), RHS: rhs}) {
			t.Errorf("missing initial candidate for rhs %d", rhs)
		}
	}
}

func TestPCoverInvertRunningExample(t *testing.T) {
	// Figure 5: universe N,A,B,G,M = 0..4, RHS N. Non-FDs MBG, AG, AMB.
	n, a, b, g, m := 0, 1, 2, 3, 4
	_ = n
	p := NewPCover(5, nil)
	p.Invert(fdset.NewFD([]int{m, b, g}, 0))
	// After Fig 5(a): the only candidate for RHS N is A → N.
	tree := p.Tree(0)
	if tree.Size() != 1 || !tree.Contains(fdset.NewAttrSet(a)) {
		t.Fatalf("after MBG: %v", tree.Sets())
	}
	p.Invert(fdset.NewFD([]int{a, g}, 0))
	// After Fig 5(b): AB → N and AM → N.
	want := []fdset.AttrSet{fdset.NewAttrSet(a, b), fdset.NewAttrSet(a, m)}
	got := tree.Sets()
	sortSets(got)
	sortSets(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after AG: %v, want %v", got, want)
	}
	p.Invert(fdset.NewFD([]int{a, m, b}, 0))
	// After Fig 5(c): ABG → N and AMG → N.
	want = []fdset.AttrSet{fdset.NewAttrSet(a, b, g), fdset.NewAttrSet(a, m, g)}
	got = tree.Sets()
	sortSets(got)
	sortSets(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after AMB: %v, want %v", got, want)
	}
}

// bruteForcePositiveCover computes, for a universe of m attributes and a
// list of maximal non-FDs per RHS, the minimal LHSs X (for each RHS) such
// that X ⊄ any non-FD LHS — by exhaustive enumeration.
func bruteForcePositiveCover(m int, nonFDs []fdset.FD) *fdset.Set {
	byRHS := map[int][]fdset.AttrSet{}
	for _, f := range nonFDs {
		byRHS[f.RHS] = append(byRHS[f.RHS], f.LHS)
	}
	out := fdset.NewSet()
	for rhs := 0; rhs < m; rhs++ {
		var valid []fdset.AttrSet
		for mask := 0; mask < 1<<m; mask++ {
			var x fdset.AttrSet
			for i := 0; i < m; i++ {
				if mask&(1<<i) != 0 {
					x.Add(i)
				}
			}
			if x.Has(rhs) {
				continue
			}
			bad := false
			for _, nl := range byRHS[rhs] {
				if x.IsSubsetOf(nl) {
					bad = true
					break
				}
			}
			if !bad {
				valid = append(valid, x)
			}
		}
		for _, x := range valid {
			minimal := true
			for _, y := range valid {
				if y != x && y.IsSubsetOf(x) {
					minimal = false
					break
				}
			}
			if minimal {
				out.Add(fdset.FD{LHS: x, RHS: rhs})
			}
		}
	}
	return out
}

func TestPCoverInvertAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 80; iter++ {
		m := 3 + r.Intn(4) // 3..6 attributes
		var nonFDs []fdset.FD
		nc := NewNCover(m, nil)
		for k := 0; k < 1+r.Intn(8); k++ {
			rhs := r.Intn(m)
			var lhs fdset.AttrSet
			for a := 0; a < m; a++ {
				if a != rhs && r.Intn(2) == 0 {
					lhs.Add(a)
				}
			}
			nc.Add(fdset.FD{LHS: lhs, RHS: rhs})
		}
		nonFDs = nc.FDs()
		p := NewPCover(m, nil)
		p.InvertAll(nonFDs)
		want := bruteForcePositiveCover(m, nonFDs)
		got := p.FDs()
		if !got.Equal(want) {
			t.Fatalf("m=%d nonFDs=%v:\n got %v\nwant %v", m, nonFDs, got.Slice(), want.Slice())
		}
	}
}

func TestPCoverInvertIdempotent(t *testing.T) {
	p := NewPCover(4, nil)
	f := fdset.NewFD([]int{1, 2}, 0)
	p.Invert(f)
	before := p.FDs()
	if added := p.Invert(f); added != 0 {
		t.Errorf("second Invert added %d candidates", added)
	}
	if !p.FDs().Equal(before) {
		t.Error("second Invert changed the cover")
	}
}

func TestPCoverKeyLHSKept(t *testing.T) {
	// With non-FDs covering every proper subset, the only valid LHS for
	// RHS 0 is the full complement {1,2}.
	p := NewPCover(3, nil)
	p.Invert(fdset.NewFD([]int{1}, 0))
	p.Invert(fdset.NewFD([]int{2}, 0))
	tree := p.Tree(0)
	if tree.Size() != 1 || !tree.Contains(fdset.NewAttrSet(1, 2)) {
		t.Errorf("candidates = %v", tree.Sets())
	}
}

func TestInvertLiteralMatchesInvert(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for iter := 0; iter < 60; iter++ {
		m := 3 + r.Intn(5)
		var nonFDs []fdset.FD
		for k := 0; k < 1+r.Intn(8); k++ {
			rhs := r.Intn(m)
			var lhs fdset.AttrSet
			for a := 0; a < m; a++ {
				if a != rhs && r.Intn(2) == 0 {
					lhs.Add(a)
				}
			}
			nonFDs = append(nonFDs, fdset.FD{LHS: lhs, RHS: rhs})
		}
		fast, slow := NewPCover(m, nil), NewPCover(m, nil)
		for _, f := range nonFDs {
			fast.Invert(f)
			slow.InvertLiteral(f)
		}
		if !fast.FDs().Equal(slow.FDs()) {
			t.Fatalf("iter %d: Invert and InvertLiteral diverge on %v", iter, nonFDs)
		}
	}
}
