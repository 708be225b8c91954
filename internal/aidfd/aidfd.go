// Package aidfd implements the AID-FD baseline (Bleifuß et al., CIKM
// 2016): approximate FD discovery by tuple sampling and inversion.
//
// AID-FD samples cluster pairs at growing regular intervals — the same
// non-repeating sliding idea EulerFD refines — but naively: every cluster
// is visited every round with no prioritization, so unproductive clusters
// consume exactly as many comparisons as productive ones. It stops when
// the negative cover's growth rate over a round falls below a single
// termination threshold and performs one inversion at the end; there is no
// second cycle, so it can never re-sample after seeing the positive cover.
package aidfd

import (
	"context"
	"time"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Options configures AID-FD.
type Options struct {
	// ThNcover is the termination threshold on the negative cover growth
	// rate per sampling round. The paper's comparison uses 0.01.
	ThNcover float64
	// MaxRounds caps sampling rounds; 0 means rounds are bounded only by
	// cluster sizes (every window size at most once).
	MaxRounds int
}

// DefaultOptions mirrors the configuration used in the paper (Section V-B).
func DefaultOptions() Options { return Options{ThNcover: 0.01} }

// Stats reports the work a discovery run performed.
type Stats struct {
	Rows, Cols    int
	PairsCompared int
	AgreeSets     int
	Rounds        int
	NcoverSize    int
	PcoverSize    int
	Total         time.Duration
}

// DiscoverEncodedContext returns an approximate set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// between sampling rounds.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded, opt Options) (*fdset.Set, Stats, error) {
	start := time.Now()
	ncols := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: ncols}
	if ncols == 0 {
		stats.Total = time.Since(start)
		return fdset.NewSet(), stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	clusters := enc.AllClusters()
	maxWindow := 2
	for _, c := range clusters {
		maxWindow = max(maxWindow, len(c.Rows))
	}
	mw := preprocess.MaskWords(ncols)
	seen := cover.NewMasks(mw, false, false)
	masks := make([]uint64, (maxWindow-1)*mw)

	// Round 1 (window 2) collects the evidence that fixes the split rank.
	var batch []fdset.AttrSet
	round := func(window int) int {
		pairs := 0
		for _, c := range clusters {
			n := len(c.Rows) - window + 1 // one pair per window start
			if n <= 0 {
				continue
			}
			enc.AgreeWindowWords(c.Rows, window, 0, n, masks)
			batch = seen.AppendNew(batch, masks[:n*mw])
			pairs += n
		}
		stats.PairsCompared += pairs
		stats.Rounds++
		return pairs
	}

	round(2)
	rank := cover.AgreeSetRank(ncols, batch)
	ncover := cover.NewNCover(ncols, rank)

	// Seed ∅ ↛ A for non-constant attributes: cluster sampling cannot
	// observe pairs that disagree everywhere (same blind-spot fix as in
	// EulerFD, applied to both approximate algorithms for a fair race).
	for a := 0; a < ncols; a++ {
		if enc.NumLabels[a] > 1 {
			ncover.Seed(a)
		}
	}
	ncover.Admit(batch, nil)
	batch = batch[:0]

	for window := 3; window <= maxWindow; window++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		if opt.MaxRounds > 0 && stats.Rounds >= opt.MaxRounds {
			break
		}
		before := ncover.Size()
		if round(window) == 0 {
			break // no cluster admits this window any more
		}
		added := ncover.Admit(batch, nil)
		batch = batch[:0]
		if before > 0 && float64(added)/float64(before) <= opt.ThNcover {
			break
		}
	}

	stats.AgreeSets = seen.Len()
	stats.NcoverSize = ncover.Size()

	// Single terminal inversion: AID-FD never returns to sampling.
	pcover := cover.NewPCover(ncols, rank)
	pcover.InvertPending(ncover, nil)
	out := pcover.FDs()
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}
