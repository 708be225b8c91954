package afd

import (
	"context"
	"fmt"
	"math"
	"time"

	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/timing"
)

// Options configures AFD discovery. The zero value is not meaningful;
// start from DefaultOptions.
type Options struct {
	// Measure selects the error measure. Empty means g3.
	Measure Measure
	// Epsilon is the threshold-mode error budget, in [0, 1]. 0 demands
	// exact FDs. Ignored in top-k mode.
	Epsilon float64
	// TopK, when positive, selects ranking mode with this result bound;
	// 0 selects threshold mode.
	TopK int
	// CacheSize bounds the partition cache (< 1 selects the default).
	CacheSize int
	// Euler configures the double cycle that seeds top-k candidates.
	// Ignored in threshold mode.
	Euler core.Options
}

// DefaultOptions returns the defaults shared by the CLIs and fdserve:
// g3, a 5% error budget, 10 results in top-k mode, and the paper's
// double-cycle settings for candidate seeding.
func DefaultOptions() Options {
	return Options{Measure: G3, Epsilon: 0.05, TopK: 10, Euler: core.DefaultOptions()}
}

// Validate checks every field against its documented range. The Euler
// options are only validated when they will be used (top-k mode).
func (o Options) Validate() error {
	if o.Measure != "" && !o.Measure.Valid() {
		return fmt.Errorf("afd: unknown measure %q (want g3, g1, pdep, tau, or redundancy)", string(o.Measure))
	}
	if math.IsNaN(o.Epsilon) || o.Epsilon < 0 || o.Epsilon > 1 {
		return fmt.Errorf("afd: epsilon %v outside [0, 1]", o.Epsilon)
	}
	if o.TopK < 0 {
		return fmt.Errorf("afd: top-k bound %d must be ≥ 0 (0 means threshold mode)", o.TopK)
	}
	if o.CacheSize < 0 {
		return fmt.Errorf("afd: cache size %d must be ≥ 0 (0 means the default)", o.CacheSize)
	}
	if o.TopK > 0 {
		return o.Euler.Validate()
	}
	return nil
}

// withDefaults resolves the zero-value measure.
func (o Options) withDefaults() Options {
	if o.Measure == "" {
		o.Measure = G3
	}
	return o
}

// Stats reports what an AFD run did. Like core.Stats, the json tags are
// a stable wire shape and durations serialize as integer nanoseconds.
type Stats struct {
	Measure string  `json:"measure"`
	Mode    string  `json:"mode"` // "threshold" or "topk"
	Epsilon float64 `json:"epsilon,omitempty"`
	K       int     `json:"k,omitempty"`
	// Candidates is the number of dependencies scored (Scorer.Scored):
	// in threshold mode the lattice nodes probed, in top-k mode the
	// candidates Rank scored, which its bound may leave far below the
	// expanded seed pool.
	Candidates int `json:"candidates"`
	Results    int `json:"results"`
	// Partition-cache counters; zero in top-k mode, whose ranking walks
	// its own partitions (Scorer.Rank).
	CacheHits    int `json:"cache_hits"`
	CacheMisses  int `json:"cache_misses"`
	CacheDerived int `json:"cache_derived"`
	// Seeding is the double-cycle time spent generating top-k
	// candidates; Scoring covers measure evaluation and ranking.
	Seeding time.Duration `json:"seeding_ns"`
	Scoring time.Duration `json:"scoring_ns"`
}

// Threshold discovers every minimal dependency with error ≤ opt.Epsilon
// under opt.Measure, in canonical FD order. See Scorer.Discover for the
// pruning contract; the measure must be anti-monotone (g3 or g1).
func Threshold(ctx context.Context, enc *preprocess.Encoded, opt Options) ([]fdset.ScoredFD, Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, Stats{}, err
	}
	opt = opt.withDefaults()
	stats := Stats{Measure: string(opt.Measure), Mode: "threshold", Epsilon: opt.Epsilon}
	sw := timing.Start()
	s := NewScorer(enc, opt.CacheSize)
	fds, err := s.Discover(ctx, opt.Measure, opt.Epsilon)
	sw.SetTo(&stats.Scoring)
	stats.CacheHits, stats.CacheMisses, stats.CacheDerived = s.CacheStats()
	stats.Candidates = s.Scored()
	stats.Results = len(fds)
	if err != nil {
		return nil, stats, err
	}
	return fds, stats, nil
}

// TopK runs the full double cycle to generate candidate dependencies
// (EulerFD's positive cover) and returns the opt.TopK best-scoring ones
// under opt.Measure — lowest error first, ties in canonical FD order.
// opt.TopK must be positive.
func TopK(ctx context.Context, enc *preprocess.Encoded, opt Options) ([]fdset.ScoredFD, Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, Stats{}, err
	}
	opt = opt.withDefaults()
	if opt.TopK < 1 {
		return nil, Stats{}, fmt.Errorf("afd: top-k mode needs TopK ≥ 1, got %d", opt.TopK)
	}
	stats := Stats{Measure: string(opt.Measure), Mode: "topk", K: opt.TopK}
	sw := timing.Start()
	seeds, _, err := core.CandidatesEncodedContext(ctx, enc, opt.Euler, nil)
	sw.SetTo(&stats.Seeding)
	if err != nil {
		return nil, stats, err
	}
	sw = timing.Start()
	s := NewScorer(enc, opt.CacheSize)
	ranked, err := s.Rank(ctx, opt.Measure, seeds, opt.TopK)
	sw.SetTo(&stats.Scoring)
	stats.CacheHits, stats.CacheMisses, stats.CacheDerived = s.CacheStats()
	stats.Candidates = s.Scored()
	stats.Results = len(ranked)
	if err != nil {
		return nil, stats, err
	}
	return ranked, stats, nil
}
