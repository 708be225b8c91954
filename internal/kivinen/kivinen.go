// Package kivinen implements the approximate discovery baseline of
// Kivinen & Mannila (TCS 1995): uniform random sampling of tuple pairs
// with accuracy and confidence parameters.
//
// The algorithm draws enough random row pairs that, with probability at
// least 1-δ, every dependency violated by more than an ε fraction of
// pairs is witnessed by the sample; the sampled violations then invert
// into FD candidates exactly as in the induction algorithms. Section II-B
// of the EulerFD paper cites it as the first sampling-based approximate
// discoverer and notes it degrades when the number of attributes is
// large — the sample size grows with m·log m and nothing steers the
// sampling toward productive regions, both visible here.
package kivinen

import (
	"context"
	"math"
	"math/rand"
	"time"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Options configures the sampler.
type Options struct {
	// Epsilon is the violation-rate accuracy parameter: dependencies
	// violated by more than an ε fraction of tuple pairs are detected
	// with high probability. Default 0.01.
	Epsilon float64
	// Delta is the failure probability bound. Default 0.05.
	Delta float64
	// Seed makes the random pair sample reproducible.
	Seed int64
	// MaxPairs caps the sample size regardless of ε and δ; 0 means the
	// theoretical size is used, clamped to the number of distinct pairs.
	MaxPairs int
}

// DefaultOptions returns ε = 0.01, δ = 0.05.
func DefaultOptions() Options { return Options{Epsilon: 0.01, Delta: 0.05} }

func (o Options) withDefaults() Options {
	if o.Epsilon <= 0 {
		o.Epsilon = 0.01
	}
	if o.Delta <= 0 {
		o.Delta = 0.05
	}
	return o
}

// Stats reports the work a discovery run performed.
type Stats struct {
	Rows, Cols    int
	SampleSize    int
	PairsCompared int
	AgreeSets     int
	NcoverSize    int
	PcoverSize    int
	Total         time.Duration
}

// DiscoverEncodedContext returns an approximate set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// in blocks of the pair-sampling loop.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded, opt Options) (*fdset.Set, Stats, error) {
	start := time.Now()
	opt = opt.withDefaults()
	m := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: m}
	if m == 0 || enc.NumRows < 2 {
		// Nothing to sample: with no violating pairs possible, the
		// positive cover is ∅ → A for every (existing) attribute.
		fds := make([]fdset.FD, m)
		for a := range fds {
			fds[a] = fdset.FD{RHS: a}
		}
		stats.Total = time.Since(start)
		return fdset.NewSet(fds...), stats, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	// Theoretical sample size: s = (1/ε)(m ln 2 + ln(1/δ)) pairs make
	// every dependency with violation rate > ε visible w.p. ≥ 1-δ via a
	// union bound over the 2^m candidate LHS families.
	// Pairs are drawn with replacement, so the size is not clamped to the
	// number of distinct pairs — only by the caller's cap.
	s := int(math.Ceil((float64(m)*math.Ln2 + math.Log(1/opt.Delta)) / opt.Epsilon))
	if opt.MaxPairs > 0 && s > opt.MaxPairs {
		s = opt.MaxPairs
	}
	stats.SampleSize = s

	r := rand.New(rand.NewSource(opt.Seed))
	seen := cover.NewMasks(preprocess.MaskWords(m), false, false)
	mask := make([]uint64, preprocess.MaskWords(m))
	var other [1]int32
	var agrees []fdset.AttrSet
	for k := 0; k < s; k++ {
		if k%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, stats, err
			}
		}
		i := r.Intn(enc.NumRows)
		j := r.Intn(enc.NumRows)
		if i == j {
			continue
		}
		stats.PairsCompared++
		other[0] = int32(j)
		enc.AgreeRowWords(i, other[:], mask)
		agrees = seen.AppendNew(agrees, mask)
	}
	stats.AgreeSets = len(agrees)

	rank := cover.AgreeSetRank(m, agrees)
	ncover := cover.NewNCover(m, rank)
	// ∅ resolution from column cardinalities, like the other samplers.
	for a := 0; a < m; a++ {
		if enc.NumLabels[a] > 1 {
			ncover.Seed(a)
		}
	}
	fdset.SortSetsDesc(agrees)
	ncover.Admit(agrees, nil)
	stats.NcoverSize = ncover.Size()

	pcover := cover.NewPCover(m, rank)
	pcover.InvertPending(ncover, nil)
	out := pcover.FDs()
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}
