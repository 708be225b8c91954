// Package fastfds implements the FastFDs baseline (Wyss, Giannella &
// Robertson, DaWaK 2001): exact FD discovery by depth-first search over
// difference sets.
//
// For every RHS attribute A, the difference sets are the complements of
// the agree sets that lack A: a valid LHS must *cover* them all (hit each
// with at least one attribute). FastFDs searches for minimal covers
// depth-first, ordering attributes greedily by how many remaining
// difference sets they cover — the heuristic that gives the algorithm its
// name. Section II-A of the EulerFD paper places it with Dep-Miner in the
// difference- and agree-set family.
package fastfds

import (
	"context"
	"sort"
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
	DiffSets      int // difference sets across all RHS
	SearchNodes   int // DFS nodes visited
	PcoverSize    int
	Total         time.Duration
}

// DiscoverEncodedContext returns the exact set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// per row block during agree-set collection and between per-RHS
// cover searches.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded) (*fdset.Set, Stats, error) {
	start := time.Now()
	m := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: m}
	if m == 0 {
		stats.Total = time.Since(start)
		return fdset.NewSet(), stats, nil
	}

	// Distinct agree sets once; per-RHS difference sets derive from them.
	agrees, pairs, err := cover.AllAgreeSets(ctx, enc)
	stats.PairsCompared = pairs
	if err != nil {
		return nil, stats, err
	}
	stats.AgreeSets = len(agrees)

	// The negative cover of all pairs holds, per RHS, the maximal agree
	// sets lacking it, whose complements are the minimal difference sets.
	ncover := cover.NCoverOf(m, cover.AgreeSetRank(m, agrees), agrees)
	var fds []fdset.FD
	for rhs := 0; rhs < m; rhs++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		diffs := differenceSets(ncover.Maximal(rhs, agrees), m, rhs)
		stats.DiffSets += len(diffs)
		if len(diffs) == 0 {
			// No violating pair: ∅ → rhs.
			fds = append(fds, fdset.FD{LHS: fdset.EmptySet(), RHS: rhs})
			continue
		}
		s := &search{diffs: diffs, rhs: rhs, out: fds, stats: &stats}
		s.dfs(fdset.EmptySet(), diffs)
		fds = s.out
	}

	out := fdset.NewSet(fds...)
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}

// differenceSets returns the minimal difference sets for one RHS: the
// complements (within R \ {rhs}) of the maximal agree sets lacking rhs,
// in their order. Complementing reverses inclusion, so these are the
// ⊆-minimal complements of all agree sets lacking rhs — covering a
// minimal difference set covers every superset of it.
func differenceSets(maxSets []fdset.AttrSet, m, rhs int) []fdset.AttrSet {
	full := fdset.FullSet(m).Without(rhs)
	out := make([]fdset.AttrSet, len(maxSets))
	for i, a := range maxSets {
		out[i] = full.Diff(a)
	}
	return out
}

type search struct {
	diffs []fdset.AttrSet
	rhs   int
	out   []fdset.FD
	stats *Stats
}

// dfs extends the partial cover x. remaining holds the difference sets x
// does not yet cover, already stripped of attributes excluded on the path
// here, so candidate attributes always come from remaining sets.
func (s *search) dfs(x fdset.AttrSet, remaining []fdset.AttrSet) {
	s.stats.SearchNodes++
	if len(remaining) == 0 {
		// x covers everything; it is minimal iff removing any single
		// attribute uncovers some difference set.
		if s.isMinimalCover(x) {
			s.out = append(s.out, fdset.FD{LHS: x, RHS: s.rhs})
		}
		return
	}
	// Order candidate attributes by how many remaining difference sets
	// they cover, descending (FastFDs' greedy ordering); ties break on
	// attribute index for determinism.
	counts := map[int]int{}
	for _, d := range remaining {
		d.ForEach(func(a int) bool {
			counts[a]++
			return true
		})
	}
	attrs := make([]int, 0, len(counts))
	for a := range counts {
		attrs = append(attrs, a)
	}
	sort.Slice(attrs, func(i, j int) bool {
		if counts[attrs[i]] != counts[attrs[j]] {
			return counts[attrs[i]] > counts[attrs[j]]
		}
		return attrs[i] < attrs[j]
	})
	// Recurse in order; each branch forbids the attributes tried before
	// it at this node (the classic FastFDs enumeration that visits every
	// cover once). Forbidding is folded into the remaining sets: a set
	// emptied by exclusions kills the branch.
	excluded := fdset.EmptySet()
	for _, a := range attrs {
		next := x.With(a)
		dead := false
		var rem []fdset.AttrSet
		for _, d := range remaining {
			if d.Has(a) {
				continue // now covered
			}
			nd := d.Diff(excluded)
			if nd.IsEmpty() {
				dead = true
				break
			}
			rem = append(rem, nd)
		}
		if !dead {
			s.dfs(next, rem)
		}
		excluded.Add(a)
	}
}

// isMinimalCover reports whether every attribute of x is necessary:
// dropping it leaves some difference set uncovered.
func (s *search) isMinimalCover(x fdset.AttrSet) bool {
	for _, a := range x.Attrs() {
		reduced := x.Without(a)
		covers := true
		for _, d := range s.diffs {
			if !reduced.Intersects(d) {
				covers = false
				break
			}
		}
		if covers {
			return false
		}
	}
	return true
}
