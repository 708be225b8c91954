package fdset

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
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

// CompareMasks orders two LHS masks of one width, word k holding
// attributes [64k, 64k+64), as Compare orders LHSs of one RHS: by
// cardinality, then by the lowest attribute of their symmetric
// difference, which the set sorting first holds.
func CompareMasks(a, b []uint64) int {
	if len(a) == 1 {
		return compareWord(a[0], b[0], bits.OnesCount64(a[0]), bits.OnesCount64(b[0]))
	}
	b = b[:len(a)]
	ca, cb, first := 0, 0, -1
	for i, x := range a {
		ca += bits.OnesCount64(x)
		cb += bits.OnesCount64(b[i])
		if first < 0 && x != b[i] {
			first = i
		}
	}
	if first < 0 {
		return 0
	}
	return compareWord(a[first], b[first], ca, cb)
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
