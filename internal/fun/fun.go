// Package fun implements the Fun baseline (Novelli & Cicchetti, ICDT
// 2001): exact FD discovery through free sets.
//
// A free set is an attribute set whose partition cardinality strictly
// exceeds every proper subset's — no attribute in it is redundant. Free
// sets are downward closed, so a level-wise (Apriori) walk enumerates
// them, and every minimal FD has a free LHS: X → a holds exactly when
// adding a does not change X's partition cardinality. Section II-A of the
// EulerFD paper lists Fun with TANE in the lattice-traversal family.
package fun

import (
	"context"
	"time"

	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Stats reports the work a discovery run performed.
type Stats struct {
	Rows, Cols int
	FreeSets   int
	Levels     int
	PcoverSize int
	Total      time.Duration
}

// DiscoverEncodedContext returns the exact set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// once per free-set level.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded) (*fdset.Set, Stats, error) {
	start := time.Now()
	m := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: m}
	if m == 0 {
		stats.Total = time.Since(start)
		return fdset.NewSet(), stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	parts := preprocess.NewPartitionCache(enc, 8192)
	// card(X) = |π_X| including singleton classes.
	card := func(x fdset.AttrSet) int {
		p := parts.Get(x)
		return enc.NumRows - p.Sum() + p.NumClusters()
	}

	cards := map[fdset.AttrSet]int{fdset.EmptySet(): card(fdset.EmptySet())}
	var fds []fdset.FD

	// emit X → a if it holds and is minimal; subsets of a free set are
	// free, so the co-atom cardinality test decides minimality exactly.
	emit := func(x fdset.AttrSet, cx int) {
		for a := 0; a < m; a++ {
			if x.Has(a) {
				continue
			}
			if card(x.With(a)) != cx {
				continue // X → a does not hold
			}
			minimal := true
			x.ForEach(func(b int) bool {
				sub := x.Without(b)
				if card(sub.With(a)) == cards[sub] {
					minimal = false
					return false
				}
				return true
			})
			if minimal {
				fds = append(fds, fdset.FD{LHS: x, RHS: a})
			}
		}
	}

	emit(fdset.EmptySet(), cards[fdset.EmptySet()])
	stats.FreeSets = 1

	// Level 1: a singleton is free iff it is not constant.
	var level []fdset.AttrSet
	for a := 0; a < m; a++ {
		x := fdset.NewAttrSet(a)
		cx := card(x)
		if cx > cards[fdset.EmptySet()] {
			cards[x] = cx
			level = append(level, x)
			stats.FreeSets++
			emit(x, cx)
		}
	}

	for size := 1; len(level) > 0 && size < m; size++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		stats.Levels = size
		inLevel := make(map[fdset.AttrSet]struct{}, len(level))
		for _, x := range level {
			inLevel[x] = struct{}{}
		}
		var next []fdset.AttrSet
		seen := map[fdset.AttrSet]struct{}{}
		for _, x := range level {
			start := x.Last() + 1
			for a := start; a < m; a++ {
				cand := x.With(a)
				if _, dup := seen[cand]; dup {
					continue
				}
				seen[cand] = struct{}{}
				// Downward closure: every co-atom must be a free set of
				// this level, with strictly smaller cardinality.
				free := true
				cc := -1
				cand.ForEach(func(b int) bool {
					sub := cand.Without(b)
					if _, ok := inLevel[sub]; !ok {
						free = false
						return false
					}
					if cc < 0 {
						cc = card(cand)
					}
					if cards[sub] == cc {
						free = false
						return false
					}
					return true
				})
				if !free {
					continue
				}
				cards[cand] = cc
				next = append(next, cand)
				stats.FreeSets++
				emit(cand, cc)
			}
		}
		level = next
	}

	out := fdset.NewSet(fds...)
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}
