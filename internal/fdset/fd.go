package fdset

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
)

// FD is a functional dependency LHS → RHS where RHS is a single attribute
// index. FD is comparable and can key maps.
type FD struct {
	LHS AttrSet
	RHS int
}

// NewFD builds an FD from LHS attribute indices and an RHS attribute.
func NewFD(lhs []int, rhs int) FD {
	return FD{LHS: NewAttrSet(lhs...), RHS: rhs}
}

// IsTrivial reports whether the RHS appears in the LHS (Definition 4).
func (f FD) IsTrivial() bool { return f.LHS.Has(f.RHS) }

// Generalizes reports whether f generalizes g: same RHS and f.LHS ⊆ g.LHS
// (Definition 3; a set generalizes itself here).
func (f FD) Generalizes(g FD) bool { return f.RHS == g.RHS && f.LHS.IsSubsetOf(g.LHS) }

// Specializes reports whether f specializes g: same RHS and f.LHS ⊇ g.LHS.
func (f FD) Specializes(g FD) bool { return g.Generalizes(f) }

// String renders the FD with attribute indices, e.g. "{0,2} -> 4".
func (f FD) String() string { return fmt.Sprintf("%s -> %d", f.LHS, f.RHS) }

// Format renders the FD using attribute names, e.g. "[Gender Medicine] -> BloodPressure".
func (f FD) Format(names []string) string {
	rhs := fmt.Sprintf("#%d", f.RHS)
	if f.RHS >= 0 && f.RHS < len(names) {
		rhs = names[f.RHS]
	}
	return f.LHS.Names(names) + " -> " + rhs
}

// Set is a collection of FDs with set semantics. The zero value is empty
// and ready to use via Add.
type Set struct {
	m map[FD]struct{}
}

// NewSet returns a Set pre-populated with the given FDs.
func NewSet(fds ...FD) *Set {
	s := &Set{m: make(map[FD]struct{}, len(fds))}
	for _, f := range fds {
		s.m[f] = struct{}{}
	}
	return s
}

func (s *Set) init() {
	if s.m == nil {
		s.m = make(map[FD]struct{})
	}
}

// Add inserts f. It reports whether f was not already present.
func (s *Set) Add(f FD) bool {
	s.init()
	if _, ok := s.m[f]; ok {
		return false
	}
	s.m[f] = struct{}{}
	return true
}

// Remove deletes f. It reports whether f was present.
func (s *Set) Remove(f FD) bool {
	if s == nil || s.m == nil {
		return false
	}
	if _, ok := s.m[f]; !ok {
		return false
	}
	delete(s.m, f)
	return true
}

// Contains reports whether f is in the set.
func (s *Set) Contains(f FD) bool {
	if s == nil || s.m == nil {
		return false
	}
	_, ok := s.m[f]
	return ok
}

// Len returns the number of FDs in the set.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return len(s.m)
}

// Slice returns the FDs in a deterministic order: ascending RHS, then by
// LHS cardinality, then by the ascending attribute list of the LHS.
func (s *Set) Slice() []FD {
	if s == nil {
		return nil
	}
	out := make([]FD, 0, len(s.m))
	for f := range s.m {
		out = append(out, f)
	}
	SortFDs(out)
	return out
}

// ForEach calls fn for every FD in the deterministic order of Slice
// (ascending RHS, then LHS cardinality, then attribute list). Iterating
// the underlying map directly would leak Go's randomized map order into
// callers' output (determinism invariant I1); the sort is cheap at the
// scale of result sets.
func (s *Set) ForEach(fn func(FD)) {
	for _, f := range s.Slice() {
		fn(f)
	}
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{m: make(map[FD]struct{}, s.Len())}
	if s != nil {
		for f := range s.m {
			c.m[f] = struct{}{}
		}
	}
	return c
}

// Equal reports whether s and t contain exactly the same FDs.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	if s == nil || t == nil {
		return s.Len() == t.Len()
	}
	for f := range s.m {
		if !t.Contains(f) {
			return false
		}
	}
	return true
}

// Minimize removes from the set every FD that is specialized by another FD
// with the same RHS (i.e. keeps only minimal FDs), and every trivial FD.
// It returns the receiver for chaining.
func (s *Set) Minimize() *Set {
	if s == nil || s.m == nil {
		return s
	}
	byRHS := make(map[int][]FD)
	for f := range s.m {
		if f.IsTrivial() {
			delete(s.m, f)
			continue
		}
		byRHS[f.RHS] = append(byRHS[f.RHS], f)
	}
	// The final set is order-independent, but iterating byRHS in sorted key
	// order keeps the whole method a deterministic computation (and keeps
	// the maporder analyzer vacuously true here).
	rhss := make([]int, 0, len(byRHS))
	for rhs := range byRHS {
		rhss = append(rhss, rhs)
	}
	sort.Ints(rhss)
	for _, rhs := range rhss {
		fds := byRHS[rhs]
		// Sort canonically (LHS size ascending, then attribute order) so that
		// any generalization of f precedes f and the scan order does not
		// inherit map iteration order; a linear scan per FD is fine for
		// test-scale sets.
		SortFDs(fds)
		for i, f := range fds {
			for j := 0; j < i; j++ {
				g := fds[j]
				if !s.Contains(g) {
					continue
				}
				if g.LHS.IsProperSubsetOf(f.LHS) {
					delete(s.m, f)
					break
				}
			}
		}
	}
	return s
}

// Compare orders FDs canonically and returns -1, 0 or +1: ascending RHS,
// then LHS cardinality, then the ascending attribute list of the LHS.
// Two distinct LHSs of equal cardinality share every attribute below
// the lowest set bit of their XOR, so their lists first differ there:
// the set holding that attribute sorts first.
func Compare(a, b FD) int {
	if a.RHS != b.RHS {
		return cmp.Compare(a.RHS, b.RHS)
	}
	x, y := &a.LHS.w, &b.LHS.w
	// Words 1–5 are empty for relations of at most 64 columns; then
	// word 0 alone decides.
	if x[1]|x[2]|x[3]|x[4]|x[5]|y[1]|y[2]|y[3]|y[4]|y[5] == 0 {
		return compareWord(x[0], y[0], bits.OnesCount64(x[0]), bits.OnesCount64(y[0]))
	}
	i := 0
	for i < attrWords-1 && x[i] == y[i] {
		i++
	}
	return compareWord(x[i], y[i], a.LHS.Count(), b.LHS.Count())
}

// compareWord orders two LHSs of cardinalities ca and cb whose first
// differing word, if any, is x against y.
func compareWord(x, y uint64, ca, cb int) int {
	switch d := x ^ y; {
	case ca != cb:
		return cmp.Compare(ca, cb)
	case d == 0:
		return 0
	case x&(d&-d) != 0:
		return -1
	}
	return 1
}

// Less reports whether a sorts before b in the canonical order of Compare.
func Less(a, b FD) bool { return Compare(a, b) < 0 }

// SortFDs orders fds canonically (Compare).
func SortFDs(fds []FD) { slices.SortFunc(fds, Compare) }

// SortSetsDesc orders attribute sets by descending cardinality, ties in
// Compare's order of their attribute lists.
func SortSetsDesc(sets []AttrSet) {
	slices.SortFunc(sets, func(a, b AttrSet) int {
		if c := cmp.Compare(b.Count(), a.Count()); c != 0 {
			return c
		}
		return Compare(FD{LHS: a}, FD{LHS: b})
	})
}

// FormatSet renders every FD in the set with attribute names, one per line.
func FormatSet(s *Set, names []string) string {
	var b strings.Builder
	for _, f := range s.Slice() {
		b.WriteString(f.Format(names))
		b.WriteByte('\n')
	}
	return b.String()
}
