// Package fdep implements the Fdep baseline (Flach & Savnik, 1999): exact
// FD discovery by dependency induction. Every tuple pair is compared to
// collect the complete negative cover, which is then inverted into the
// positive cover of minimal FDs.
//
// Fdep scales well with the number of attributes but is quadratic in the
// number of tuples; the paper uses it as the canonical induction baseline
// that EulerFD's sampling is designed to beat on row scalability.
package fdep

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
	NcoverSize    int
	PcoverSize    int
	Total         time.Duration
}

// DiscoverEncodedContext returns the exact set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// once per base row of the quadratic pairwise induction sweep.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded) (*fdset.Set, Stats, error) {
	start := time.Now()
	ncols := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: ncols}
	if ncols == 0 {
		stats.Total = time.Since(start)
		return fdset.NewSet(), stats, nil
	}

	// Pairwise comparison: collect every distinct agree set.
	agrees, pairs, err := cover.AllAgreeSets(ctx, enc)
	stats.PairsCompared = pairs
	if err != nil {
		return nil, stats, err
	}
	stats.AgreeSets = len(agrees)

	// Negative cover: maximal non-FDs per RHS, split rank by attribute
	// frequency as in EulerFD's Algorithm 2. Agree set X witnesses X ↛ a
	// for every a ∉ X, and every stored set is marked pending for the
	// inversion.
	rank := cover.AgreeSetRank(ncols, agrees)
	ncover := cover.NCoverOf(ncols, rank, agrees)
	stats.NcoverSize = ncover.Size()

	// Inversion into the positive cover.
	pcover := cover.NewPCover(ncols, rank)
	pcover.InvertPending(ncover, nil)
	out := pcover.FDs()
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}
