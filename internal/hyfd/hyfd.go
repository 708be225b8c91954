// Package hyfd implements the HyFD baseline (Papenbrock & Naumann, SIGMOD
// 2016): exact FD discovery that hybridizes sampling-based induction with
// lattice-style validation.
//
// Phase one samples cluster pairs at growing windows while the sampling
// efficiency (new evidence per comparison) stays high, inducing FD
// candidates by negative-cover inversion. Phase two validates the
// candidates against the full relation, level by level; every violation
// found feeds its witnessing agree set back into the negative cover, which
// specializes the candidates. When the invalid rate of a validation round
// spikes, HyFD switches back to sampling. The result is exact, which is
// why the benchmark harness uses HyFD as the ground-truth oracle on
// datasets too large for the brute-force checker.
package hyfd

import (
	"context"
	"slices"
	"sort"
	"time"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Options configures HyFD.
type Options struct {
	// EfficiencyThreshold stops the sampling phase when the fraction of
	// comparisons yielding new agree sets drops below it. Default 0.01.
	EfficiencyThreshold float64
	// InvalidSwitchRatio sends validation back to sampling when more than
	// this fraction of a level's candidates turn out invalid (and the
	// sampler still has windows left). Default 0.2.
	InvalidSwitchRatio float64
}

// DefaultOptions returns the configuration used in the evaluation.
func DefaultOptions() Options {
	return Options{EfficiencyThreshold: 0.01, InvalidSwitchRatio: 0.2}
}

func (o Options) withDefaults() Options {
	if o.EfficiencyThreshold <= 0 {
		o.EfficiencyThreshold = 0.01
	}
	if o.InvalidSwitchRatio <= 0 {
		o.InvalidSwitchRatio = 0.2
	}
	return o
}

// Stats reports the work a discovery run performed.
type Stats struct {
	Rows, Cols     int
	PairsCompared  int
	AgreeSets      int
	SamplingRounds int
	Validations    int // candidate validations against the full data
	Invalidated    int // candidates found invalid during validation
	SwitchBacks    int // validation → sampling transitions
	PcoverSize     int
	Total          time.Duration
}

type sampler struct {
	enc      *preprocess.Encoded
	clusters []preprocess.Cluster
	window   int
	seen     *cover.Masks
	masks    []uint64 // one window sweep of the largest cluster
	maxLen   int
}

// round compares every cluster's pairs at the current window size and
// returns the new agree sets plus the number of comparisons performed.
func (s *sampler) round() ([]fdset.AttrSet, int) {
	var found []fdset.AttrSet
	pairs := 0
	mw := preprocess.MaskWords(len(s.enc.Attrs))
	for _, c := range s.clusters {
		n := len(c.Rows) - s.window + 1 // one pair per window start
		if n <= 0 {
			continue
		}
		s.enc.AgreeWindowWords(c.Rows, s.window, 0, n, s.masks)
		found = s.seen.AppendNew(found, s.masks[:n*mw])
		pairs += n
	}
	s.window++
	return found, pairs
}

func (s *sampler) exhausted() bool { return s.window > s.maxLen }

// DiscoverEncodedContext returns the exact set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// between validation sweeps of the hybrid loop.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded, opt Options) (*fdset.Set, Stats, error) {
	start := time.Now()
	opt = opt.withDefaults()
	m := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: m}
	if m == 0 {
		stats.Total = time.Since(start)
		return fdset.NewSet(), stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	mw := preprocess.MaskWords(m)
	smp := &sampler{enc: enc, clusters: enc.AllClusters(), window: 2, seen: cover.NewMasks(mw, false, false)}
	for _, c := range smp.clusters {
		smp.maxLen = max(smp.maxLen, len(c.Rows))
	}
	smp.masks = make([]uint64, max(smp.maxLen-1, 0)*mw)

	ncover := cover.NewNCover(m, nil)
	pcover := cover.NewPCover(m, nil)
	// Exact ∅ → A resolution from column cardinalities (cluster sampling
	// cannot witness pairs that disagree everywhere).
	for a := 0; a < m; a++ {
		if enc.NumLabels[a] > 1 {
			ncover.Seed(a)
		}
	}
	pcover.InvertPending(ncover, nil)

	// ingest admits agree set X as X ↛ a for every a ∉ X and inverts
	// what the negative cover stored.
	ingest := func(agrees []fdset.AttrSet) {
		ncover.Admit(agrees, nil)
		pcover.InvertPending(ncover, nil)
	}

	samplePhase := func() {
		for !smp.exhausted() {
			found, pairs := smp.round()
			stats.SamplingRounds++
			stats.PairsCompared += pairs
			ingest(found)
			if pairs == 0 || float64(len(found))/float64(max(pairs, 1)) < opt.EfficiencyThreshold {
				return
			}
		}
	}
	samplePhase()

	// Validation phase: sweep all candidates in ascending LHS size,
	// validating each group of RHSs on one stripped partition of their
	// shared LHS (a superkey LHS has an empty stripped partition and
	// validates its whole group with no per-row work). Violations are
	// inverted immediately, which only ever spawns strictly larger
	// candidates, so repeating the sweep until one passes clean
	// terminates. Candidates proven valid stay valid — a later violation
	// agree set can never contain a valid candidate while missing its
	// RHS — so they are cached and never revalidated.
	validated := make(map[fdset.FD]struct{})
	for {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		invalid, total := 0, 0
		for _, g := range candidateGroups(pcover, validated) {
			part := enc.PartitionOf(g.lhs)
			for _, rhs := range g.rhss {
				// The candidate may have been removed by an earlier
				// violation in this sweep.
				if !pcover.Tree(rhs).Contains(g.lhs) {
					continue
				}
				total++
				stats.Validations++
				i, j, violated := enc.ViolatingPair(part, rhs)
				if !violated {
					validated[fdset.FD{LHS: g.lhs, RHS: rhs}] = struct{}{}
					continue
				}
				invalid++
				stats.Invalidated++
				ingest([]fdset.AttrSet{enc.AgreeSet(int(i), int(j))})
			}
		}
		if invalid == 0 {
			break
		}
		// Heavy invalidation signals the sample was too thin; gather
		// more evidence cheaply before validating further.
		if total > 0 && float64(invalid)/float64(total) > opt.InvalidSwitchRatio && !smp.exhausted() {
			stats.SwitchBacks++
			samplePhase()
		}
	}

	stats.AgreeSets = smp.seen.Len()
	out := pcover.FDs()
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}

// lhsGroup collects every candidate RHS sharing one LHS at a level.
type lhsGroup struct {
	lhs  fdset.AttrSet
	rhss []int
}

// candidateGroups lists the not-yet-validated positive-cover candidates
// grouped by LHS, ordered by ascending LHS size (then lexicographically).
func candidateGroups(p *cover.PCover, validated map[fdset.FD]struct{}) []lhsGroup {
	byLHS := make(map[fdset.AttrSet][]int)
	for rhs := 0; rhs < p.NumCols(); rhs++ {
		p.Tree(rhs).ForEach(func(lhs fdset.AttrSet) bool {
			if _, done := validated[fdset.FD{LHS: lhs, RHS: rhs}]; !done {
				byLHS[lhs] = append(byLHS[lhs], rhs)
			}
			return true
		})
	}
	out := make([]lhsGroup, 0, len(byLHS))
	for lhs, rhss := range byLHS {
		sort.Ints(rhss)
		out = append(out, lhsGroup{lhs: lhs, rhss: rhss})
	}
	slices.SortFunc(out, func(a, b lhsGroup) int {
		return fdset.Compare(fdset.FD{LHS: a.lhs}, fdset.FD{LHS: b.lhs})
	})
	return out
}
