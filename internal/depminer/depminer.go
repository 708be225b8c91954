// Package depminer implements the Dep-Miner baseline (Lopes, Petit &
// Lakhal, EDBT 2000): exact FD discovery from agree sets.
//
// Dep-Miner computes the agree sets of the relation, keeps for every RHS
// attribute A the *maximal* agree sets not containing A, and derives the
// minimal FD left-hand sides as the minimal transversals of the
// complement hypergraph — by a levelwise (Apriori-style) search, which is
// what distinguishes it from the induction algorithms (Fdep, EulerFD)
// that maintain the same covers incrementally. Section II-A of the
// EulerFD paper places it in the difference- and agree-set family, which
// scales moderately in both rows and columns.
package depminer

import (
	"context"
	"time"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Stats reports the work a discovery run performed.
type Stats struct {
	Rows, Cols    int
	PairsCompared int
	AgreeSets     int
	MaxSets       int // maximal agree sets across all RHS
	Levels        int // deepest transversal level reached
	PcoverSize    int
	Total         time.Duration
}

// DiscoverEncodedContext returns the exact set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// per row block during agree-set collection and between per-RHS
// transversal searches.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded) (*fdset.Set, Stats, error) {
	start := time.Now()
	m := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: m}
	if m == 0 {
		stats.Total = time.Since(start)
		return fdset.NewSet(), stats, nil
	}

	agrees, pairs, err := cover.AllAgreeSets(ctx, enc)
	stats.PairsCompared = pairs
	if err != nil {
		return nil, stats, err
	}
	stats.AgreeSets = len(agrees)

	// The negative cover of all pairs holds, per RHS A, exactly the
	// maximal agree sets not containing A (max(dep(r), A) in the
	// paper's notation).
	ncover := cover.NCoverOf(m, cover.AgreeSetRank(m, agrees), agrees)
	var fds []fdset.FD
	for rhs := 0; rhs < m; rhs++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		maxSets := ncover.Maximal(rhs, agrees)
		stats.MaxSets += len(maxSets)
		// Each maximal agree set ag contributes the constraint that a
		// valid LHS must intersect its complement (within R \ {rhs}).
		complements := make([]fdset.AttrSet, len(maxSets))
		full := fdset.FullSet(m).Without(rhs)
		for i, ag := range maxSets {
			complements[i] = full.Diff(ag)
		}
		levels := transversalsLevelwise(m, rhs, complements, func(lhs fdset.AttrSet) {
			fds = append(fds, fdset.FD{LHS: lhs, RHS: rhs})
		})
		if levels > stats.Levels {
			stats.Levels = levels
		}
	}

	out := fdset.NewSet(fds...)
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}

// transversalsLevelwise enumerates the minimal transversals of the
// hypergraph given by edges (subsets of R \ {rhs}) with a levelwise
// search: level-k candidates are attribute sets of size k not containing
// any already-emitted transversal; those hitting every edge are emitted.
// emit is called once per minimal transversal. It returns the number of
// levels explored.
//
// With no edges the empty set is the unique minimal transversal,
// matching the FD semantics: no violating pair means ∅ → rhs.
func transversalsLevelwise(m, rhs int, edges []fdset.AttrSet, emit func(fdset.AttrSet)) int {
	if len(edges) == 0 {
		emit(fdset.EmptySet())
		return 0
	}
	// An attribute outside every edge can never help a transversal;
	// restrict the universe to the union of edges.
	var universe fdset.AttrSet
	for _, e := range edges {
		universe = universe.Union(e)
	}
	attrs := universe.Attrs()

	hits := func(x fdset.AttrSet) bool {
		for _, e := range edges {
			if !x.Intersects(e) {
				return false
			}
		}
		return true
	}

	var found []fdset.AttrSet
	level := []fdset.AttrSet{fdset.EmptySet()}
	levels := 0
	for len(level) > 0 && levels <= len(attrs) {
		levels++
		var next []fdset.AttrSet
		seen := make(map[fdset.AttrSet]struct{})
		for _, x := range level {
			// Extend with attributes greater than the current maximum to
			// generate each candidate exactly once.
			for _, a := range attrs[indexAfter(attrs, x.Last()):] {
				c := x.With(a)
				if _, dup := seen[c]; dup {
					continue
				}
				seen[c] = struct{}{}
				// Prune candidates containing a found transversal.
				blocked := false
				for _, f := range found {
					if f.IsSubsetOf(c) {
						blocked = true
						break
					}
				}
				if blocked {
					continue
				}
				if hits(c) {
					found = append(found, c)
					emit(c)
					continue
				}
				next = append(next, c)
			}
		}
		level = next
	}
	return levels
}

// indexAfter returns the index of the first element of sorted attrs that
// is strictly greater than v.
func indexAfter(attrs []int, v int) int {
	for i, a := range attrs {
		if a > v {
			return i
		}
	}
	return len(attrs)
}
