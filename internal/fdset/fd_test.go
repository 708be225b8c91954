package fdset

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestFDBasics(t *testing.T) {
	f := NewFD([]int{0, 2}, 3)
	if f.IsTrivial() {
		t.Error("non-trivial FD reported trivial")
	}
	g := NewFD([]int{0, 2, 3}, 3)
	if !g.IsTrivial() {
		t.Error("trivial FD not detected")
	}
	if f.String() != "{0,2} -> 3" {
		t.Errorf("String = %q", f.String())
	}
	names := []string{"N", "A", "B", "G"}
	if got := f.Format(names); got != "[N B] -> G" {
		t.Errorf("Format = %q", got)
	}
	if got := NewFD(nil, 9).Format(names); got != "[] -> #9" {
		t.Errorf("Format out-of-range RHS = %q", got)
	}
}

func TestGeneralizesSpecializes(t *testing.T) {
	base := NewFD([]int{1}, 5)
	spec := NewFD([]int{1, 2}, 5)
	other := NewFD([]int{1}, 6)
	if !base.Generalizes(spec) || !spec.Specializes(base) {
		t.Error("subset relation not detected")
	}
	if base.Generalizes(other) {
		t.Error("different RHS must not generalize")
	}
	if !base.Generalizes(base) {
		t.Error("an FD generalizes itself")
	}
	// Incomparable LHSs (Example 2).
	a := NewFD([]int{0, 1, 3}, 4)
	b := NewFD([]int{0, 3, 2}, 4)
	if a.Generalizes(b) || b.Generalizes(a) {
		t.Error("incomparable LHSs must not generalize")
	}
}

func TestSetAddRemoveContains(t *testing.T) {
	var s Set
	f := NewFD([]int{0}, 1)
	if s.Contains(f) || s.Len() != 0 {
		t.Error("zero Set should be empty")
	}
	if !s.Add(f) {
		t.Error("first Add should report true")
	}
	if s.Add(f) {
		t.Error("duplicate Add should report false")
	}
	if !s.Contains(f) || s.Len() != 1 {
		t.Error("Contains/Len after Add wrong")
	}
	if !s.Remove(f) || s.Remove(f) {
		t.Error("Remove semantics wrong")
	}
}

func TestSetNilSafety(t *testing.T) {
	var s *Set
	if s.Len() != 0 || s.Contains(NewFD([]int{0}, 1)) || s.Remove(NewFD([]int{0}, 1)) {
		t.Error("nil *Set reads should be safe no-ops")
	}
	if got := s.Slice(); got != nil {
		t.Errorf("nil Slice = %v", got)
	}
	s.ForEach(func(FD) { t.Error("nil ForEach must not call fn") })
}

// A callback that adds to the set breaks ForEach's contract, but one that
// widens it (an LHS past attribute 63) must not push the walk past the
// end of a one-word run: the walk keeps the width it started at, and
// widening replaces the runs rather than writing into them.
func TestSetForEachWideningAdd(t *testing.T) {
	s := NewSet(NewFD([]int{0}, 1), NewFD([]int{1}, 1), NewFD([]int{2}, 3))
	want := s.Slice()
	var got []FD
	s.ForEach(func(f FD) {
		got = append(got, f)
		s.Add(NewFD([]int{100 + len(got)}, f.RHS))
	})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ForEach walked %v, want the FDs it started with, %v", got, want)
	}
}

func TestSetSliceDeterministic(t *testing.T) {
	s := NewSet(
		NewFD([]int{2, 3}, 1),
		NewFD([]int{0}, 1),
		NewFD([]int{1}, 0),
		NewFD([]int{0, 2}, 1),
	)
	got := s.Slice()
	want := []FD{
		NewFD([]int{1}, 0),
		NewFD([]int{0}, 1),
		NewFD([]int{0, 2}, 1),
		NewFD([]int{2, 3}, 1),
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Slice order = %v, want %v", got, want)
	}
	// Same contents added in another order must slice identically.
	s2 := NewSet(want[3], want[2], want[1], want[0])
	if !reflect.DeepEqual(s2.Slice(), want) {
		t.Error("Slice order depends on insertion order")
	}
}

func TestSetEqualClone(t *testing.T) {
	a := NewSet(NewFD([]int{0}, 1), NewFD([]int{2}, 3))
	b := a.Clone()
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("clone not equal")
	}
	b.Add(NewFD([]int{4}, 5))
	if a.Equal(b) {
		t.Error("Equal ignored extra FD")
	}
	if a.Contains(NewFD([]int{4}, 5)) {
		t.Error("Clone aliases original")
	}
}

func TestMinimize(t *testing.T) {
	s := NewSet(
		NewFD([]int{0}, 2),       // minimal
		NewFD([]int{0, 1}, 2),    // specializes {0}->2, must go
		NewFD([]int{1}, 2),       // minimal
		NewFD([]int{1, 3}, 6),    // minimal
		NewFD([]int{1, 3, 4}, 6), // specializes, must go
		NewFD([]int{2, 3}, 3),    // trivial (3 in LHS), must go
		NewFD([]int{5}, 4),       // minimal
	)
	s.Minimize()
	want := NewSet(
		NewFD([]int{0}, 2),
		NewFD([]int{1}, 2),
		NewFD([]int{1, 3}, 6),
		NewFD([]int{5}, 4),
	)
	if !s.Equal(want) {
		t.Errorf("Minimize result:\n%v\nwant:\n%v", s.Slice(), want.Slice())
	}
}

func TestMinimizeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 100; iter++ {
		s := NewSet()
		var fds []FD
		for i := 0; i < 30; i++ {
			f := FD{LHS: randSet(r, 8), RHS: r.Intn(8)}
			fds = append(fds, f)
			s.Add(f)
		}
		s.Minimize()
		// Every surviving FD is non-trivial and not specialized by another
		// original FD that also survives... stronger: for each survivor f,
		// no *original* non-trivial g with g.LHS ⊂ f.LHS, same RHS.
		s.ForEach(func(f FD) {
			if f.IsTrivial() {
				t.Fatalf("trivial FD survived: %v", f)
			}
			for _, g := range fds {
				if g.IsTrivial() || g == f {
					continue
				}
				if g.RHS == f.RHS && g.LHS.IsProperSubsetOf(f.LHS) {
					t.Fatalf("non-minimal FD survived: %v generalized by %v", f, g)
				}
			}
		})
		// Every original minimal non-trivial FD survives.
		for _, f := range fds {
			if f.IsTrivial() {
				continue
			}
			minimal := true
			for _, g := range fds {
				if g.IsTrivial() || g == f {
					continue
				}
				if g.RHS == f.RHS && g.LHS.IsProperSubsetOf(f.LHS) {
					minimal = false
					break
				}
			}
			if minimal && !s.Contains(f) {
				t.Fatalf("minimal FD dropped: %v", f)
			}
		}
	}
}

func TestFormatSet(t *testing.T) {
	s := NewSet(NewFD([]int{0}, 1), NewFD([]int{1}, 0))
	out := FormatSet(s, []string{"A", "B"})
	if !strings.Contains(out, "[B] -> A") || !strings.Contains(out, "[A] -> B") {
		t.Errorf("FormatSet output = %q", out)
	}
}

func TestSortFDsTieBreak(t *testing.T) {
	fds := []FD{
		NewFD([]int{1, 2}, 0),
		NewFD([]int{0, 3}, 0),
		NewFD([]int{0, 2}, 0),
	}
	SortFDs(fds)
	want := []FD{
		NewFD([]int{0, 2}, 0),
		NewFD([]int{0, 3}, 0),
		NewFD([]int{1, 2}, 0),
	}
	if !reflect.DeepEqual(fds, want) {
		t.Errorf("SortFDs = %v, want %v", fds, want)
	}
}
