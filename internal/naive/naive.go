// Package naive provides a brute-force FD discovery oracle for small
// relations: it enumerates every candidate LHS per RHS and validates each
// against all row pairs. Exponential in columns and quadratic in rows, it
// exists purely as ground truth for tests and for validating the outputs
// of the real algorithms.
package naive

import (
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// MaxCols bounds the relations the oracle accepts; 2^MaxCols candidate
// LHSs are enumerated per RHS.
const MaxCols = 16

// Discover returns every minimal, non-trivial FD of the relation.
// It panics if the relation is wider than MaxCols: the oracle is for
// test-scale inputs only.
func Discover(rel *dataset.Relation) *fdset.Set {
	return DiscoverEncoded(preprocess.Encode(rel))
}

// DiscoverEncoded is Discover over a pre-encoded relation.
func DiscoverEncoded(enc *preprocess.Encoded) *fdset.Set {
	m := len(enc.Attrs)
	if m > MaxCols {
		panic("naive: relation too wide for brute force")
	}
	var fds []fdset.FD
	for rhs := 0; rhs < m; rhs++ {
		// Walk LHS masks in ascending popcount so minimality can be
		// checked against already-accepted FDs.
		var valid []fdset.AttrSet
		for size := 0; size <= m-1; size++ {
			for mask := 0; mask < 1<<m; mask++ {
				if mask&(1<<rhs) != 0 || popcount(mask) != size {
					continue
				}
				lhs := maskToSet(mask)
				minimal := true
				for _, v := range valid {
					if v.IsSubsetOf(lhs) {
						minimal = false
						break
					}
				}
				if !minimal {
					continue
				}
				if Holds(enc, lhs, rhs) {
					valid = append(valid, lhs)
					fds = append(fds, fdset.FD{LHS: lhs, RHS: rhs})
				}
			}
		}
	}
	return fdset.NewSet(fds...)
}

// Holds validates X → a by comparing every row pair.
func Holds(enc *preprocess.Encoded, x fdset.AttrSet, a int) bool {
	var lanes []preprocess.Lane
	x.ForEach(func(c int) bool {
		lanes = append(lanes, enc.Lane(c))
		return true
	})
	rhs := enc.Lane(a)
	for i := int32(0); i < int32(enc.NumRows); i++ {
		for j := i + 1; j < int32(enc.NumRows); j++ {
			agreeOnX := true
			for _, l := range lanes {
				if l.At(i) != l.At(j) {
					agreeOnX = false
					break
				}
			}
			if agreeOnX && rhs.At(i) != rhs.At(j) {
				return false
			}
		}
	}
	return true
}

// IsMinimal reports whether X → a is valid and no proper subset of X also
// determines a.
func IsMinimal(enc *preprocess.Encoded, x fdset.AttrSet, a int) bool {
	if !Holds(enc, x, a) {
		return false
	}
	attrs := x.Attrs()
	for _, drop := range attrs {
		if Holds(enc, x.Without(drop), a) {
			return false
		}
	}
	return true
}

func popcount(x int) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

func maskToSet(mask int) fdset.AttrSet {
	var s fdset.AttrSet
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			s.Add(i)
		}
		mask >>= 1
	}
	return s
}
