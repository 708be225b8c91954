// Package infer provides reasoning over a discovered FD set: attribute-set
// closures under Armstrong's axioms, implication tests, candidate-key
// enumeration, and Boyce-Codd Normal Form checks. These are the
// schema-normalization and query-optimization primitives that the paper's
// introduction motivates FD discovery with.
package infer

import (
	"slices"

	"eulerfd/internal/fdset"
)

// Closure returns the closure of x under fds: the largest set X⁺ with
// x ⊆ X⁺ such that every attribute of X⁺ is determined by x. ncols bounds
// the attribute universe.
func Closure(fds *fdset.Set, x fdset.AttrSet, ncols int) fdset.AttrSet {
	closure := x
	// Fixpoint iteration; each round scans the FD set once, sorted once
	// per call. The FD sets produced by discovery are minimal, so rounds
	// are few.
	all := fds.Slice()
	for {
		changed := false
		for _, f := range all {
			if f.RHS < ncols && !closure.Has(f.RHS) && f.LHS.IsSubsetOf(closure) {
				closure = closure.With(f.RHS)
				changed = true
			}
		}
		if !changed {
			return closure
		}
	}
}

// Implies reports whether fds logically imply the dependency x → a,
// i.e. whether a ∈ x⁺.
func Implies(fds *fdset.Set, x fdset.AttrSet, a, ncols int) bool {
	if x.Has(a) {
		return true // trivial dependencies always hold
	}
	return Closure(fds, x, ncols).Has(a)
}

// IsSuperkey reports whether x determines every attribute of the schema.
func IsSuperkey(fds *fdset.Set, x fdset.AttrSet, ncols int) bool {
	return Closure(fds, x, ncols) == fdset.FullSet(ncols)
}

// CandidateKeys enumerates the minimal superkeys of a schema with ncols
// attributes under fds, in deterministic order. The search walks the
// subset lattice breadth-first, pruning supersets of found keys, so it is
// exponential in the worst case — callers should bound ncols (maxCols ≤
// 24 is enforced; wider schemas rarely want full key enumeration).
func CandidateKeys(fds *fdset.Set, ncols int) []fdset.AttrSet {
	keys, _ := CandidateKeysBounded(fds, ncols, 0)
	return keys
}

// CandidateKeysBounded is CandidateKeys under a work budget: maxNodes
// caps how many lattice nodes the search may test for superkey-ness
// (each test is a closure computation, the search's unit of work).
// maxNodes ≤ 0 means unbounded. complete reports whether the search
// finished within budget; when it did not, the keys found so far are
// returned but the enumeration may miss wider keys. The budget makes
// key enumeration safe to run inline on schemas whose minimal keys are
// wide — the lattice breadth below a width-k key grows like C(ncols,k),
// far past what a report or request should spend.
func CandidateKeysBounded(fds *fdset.Set, ncols, maxNodes int) (keys []fdset.AttrSet, complete bool) {
	const maxCols = 24
	if ncols > maxCols {
		panic("infer: CandidateKeys limited to 24 attributes")
	}
	if ncols == 0 {
		return nil, true
	}
	nodes := 0
	level := []fdset.AttrSet{fdset.EmptySet()}
	for size := 0; size <= ncols && len(level) > 0; size++ {
		var next []fdset.AttrSet
		seen := map[fdset.AttrSet]struct{}{}
		for _, x := range level {
			blocked := false
			for _, k := range keys {
				if k.IsSubsetOf(x) {
					blocked = true
					break
				}
			}
			if blocked {
				continue
			}
			if maxNodes > 0 && nodes >= maxNodes {
				sortKeys(keys)
				return keys, false
			}
			nodes++
			if IsSuperkey(fds, x, ncols) {
				keys = append(keys, x)
				continue
			}
			for a := x.Last() + 1; a < ncols; a++ {
				c := x.With(a)
				if _, dup := seen[c]; !dup {
					seen[c] = struct{}{}
					next = append(next, c)
				}
			}
		}
		level = next
	}
	sortKeys(keys)
	return keys, true
}

func sortKeys(keys []fdset.AttrSet) {
	slices.SortFunc(keys, func(a, b fdset.AttrSet) int {
		return fdset.Compare(fdset.FD{LHS: a}, fdset.FD{LHS: b})
	})
}

// BCNFViolation returns a discovered FD whose LHS is not a superkey — a
// Boyce-Codd Normal Form violation — or ok = false when the schema is in
// BCNF with respect to fds. Trivial FDs never violate BCNF.
func BCNFViolation(fds *fdset.Set, ncols int) (fdset.FD, bool) {
	for _, f := range fds.Slice() {
		if f.IsTrivial() {
			continue
		}
		if !IsSuperkey(fds, f.LHS, ncols) {
			return f, true
		}
	}
	return fdset.FD{}, false
}

// Decompose splits a schema along a BCNF-violating FD: the first fragment
// is the closure of the violating LHS, the second is the LHS plus every
// attribute outside that closure. The decomposition is lossless because
// the shared attributes (the LHS) are a key of the first fragment.
func Decompose(fds *fdset.Set, violation fdset.FD, ncols int) (left, right fdset.AttrSet) {
	closure := Closure(fds, violation.LHS, ncols)
	left = closure
	right = violation.LHS.Union(fdset.FullSet(ncols).Diff(closure))
	return left, right
}
