package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"eulerfd/internal/cover"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/timing"
)

// Options configures EulerFD. The zero value is not meaningful; use
// DefaultOptions (the paper's settings) and override fields as needed.
// Each field documents its legal range; Validate enforces them, and the
// context-aware entry points refuse to run on an invalid configuration.
type Options struct {
	// ThNcover is the growth-rate threshold of the first cycle: while
	// GR_Ncover exceeds it, EulerFD keeps sampling before inverting.
	// Legal range: ≥ 0 (0 samples to exhaustion). Paper default 0.01.
	ThNcover float64
	// ThPcover is the growth-rate threshold of the second cycle: while
	// GR_Pcover exceeds it, EulerFD returns to sampling after inversion.
	// Legal range: ≥ 0 (0 cycles until no growth). Paper default 0.01.
	ThPcover float64
	// NumQueues is the MLFQ depth (Table IV). Legal range: ≥ 1, with 0
	// selecting the paper default 6.
	NumQueues int
	// ExhaustWindows disables capa-based cluster parking: every cluster
	// stays in the MLFQ until all of its window sizes are consumed. With
	// the ∅-seed this makes the result exact at the cost of comparing
	// every intra-cluster pair; used for verification and ablations.
	ExhaustWindows bool
	// Workers is the degree of parallelism of the engine: one persistent
	// worker pool runs negative-cover admission and inversion sharded by
	// RHS, and for core.Incremental the delta scan's chunks and the
	// positive-cover patching after retirements. Sampling is sequential.
	// Legal range: ≥ 0, where 0 (the default) means runtime.GOMAXPROCS(0)
	// — the CPUs the Go scheduler may use at once, which a CPU quota can
	// set below the machine's core count — and Workers = 1 forces the
	// paper's sequential execution. The result is identical for every
	// value — per-RHS covers are independent and delta-scan chunks merge
	// in position order — so parallelism is purely a wall-clock knob.
	Workers int
	// Epsilon is the error budget of approximate (AFD) discovery: a
	// dependency is reported when its error under the chosen measure is
	// ≤ Epsilon. Legal range: [0, 1] and not NaN, with 0 demanding exact
	// FDs. Exact discovery ignores it.
	Epsilon float64
	// TopK, when positive, switches approximate discovery to ranking
	// mode: report the K best-scoring candidates instead of everything
	// under Epsilon. Legal range: ≥ 0, with 0 meaning threshold mode.
	// Exact discovery ignores it.
	TopK int
	// Seed selects one sampling schedule out of a deterministic family: a
	// nonzero seed applies a splitmix64-derived permutation of the initial
	// cluster order and a per-cluster rotation of the window-size cycle
	// (see seed.go), so different seeds gather evidence in different
	// orders while each run stays exactly reproducible for any Workers
	// value. Seed = 0 (the default) keeps the canonical schedule, byte-
	// identical to the unseeded engine. Any value is legal.
	Seed uint64
	// Ensemble is the member count of ensemble discovery (the repo root's
	// DiscoverEnsemble): N seeded runs vote per candidate FD and report
	// confidence as the agreeing fraction. Legal range: ≥ 0, with 0
	// meaning single-run discovery. Single-run entry points ignore it.
	Ensemble int
	// DynamicCapaRanges enables runtime revision of the MLFQ capa ranges
	// — the extension the paper's conclusion proposes as future work.
	// Between sampling generations the queue thresholds are re-anchored
	// at the highest recently observed capa, so cluster prioritization
	// keeps discriminating even after absolute capa values decay below
	// the static Table IV ladder.
	DynamicCapaRanges bool
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: thresholds 0.01/0.01 and a 6-queue MLFQ.
func DefaultOptions() Options {
	return Options{
		ThNcover:  0.01,
		ThPcover:  0.01,
		NumQueues: 6,
	}
}

func (o Options) withDefaults() Options {
	if o.NumQueues < 1 {
		o.NumQueues = 6
	}
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// recentPasses is how many recent pass capas the requeue decision
// averages over.
const recentPasses = 3

// Stats reports what a discovery run did, for the experiment harness and
// for diagnosing threshold settings. The json tags are the stable wire
// shape shared by fdserve, fddiscover -json, and the bench/regress
// documents; durations are serialized as integer nanoseconds (Go's
// time.Duration encoding) under *_ns keys.
type Stats struct {
	Counters
	// Retired, PatchedRHS and Clamped are produced only by incremental
	// mutation batches (core.Incremental): (RHS, maximal non-FD) pairs
	// that left the negative cover because their last witness died or,
	// for ∅, because the RHS column became constant; RHS attributes
	// whose positive-cover tree was patched because of a retirement; and
	// witness decrements that would have taken a tally below zero and
	// were clamped at it (sampled tallies are lower bounds, see
	// Incremental). One-shot discovery leaves them zero.
	Retired     int           `json:"retired"`
	PatchedRHS  int           `json:"patched_rhs"`
	Clamped     int           `json:"clamped"`
	Preprocess  time.Duration `json:"preprocess_ns"`
	Sampling    time.Duration `json:"sampling_ns"`
	NcoverBuild time.Duration `json:"ncover_build_ns"`
	Inversion   time.Duration `json:"inversion_ns"`
	Total       time.Duration `json:"total_ns"`
}

// Counters are the work counters a run reports both while it runs (in
// every Progress snapshot) and when it ends (in Stats). Both embed them,
// so the two wire shapes share these keys in this order.
type Counters struct {
	Rows          int `json:"rows"`
	Cols          int `json:"cols"`
	PairsCompared int `json:"pairs_compared"`
	AgreeSets     int `json:"agree_sets"`  // distinct agree sets sampled
	NcoverSize    int `json:"ncover_size"` // maximal non-FDs stored
	PcoverSize    int `json:"pcover_size"` // minimal FDs output
	// SampleBatches is the number of sampling drains: runs of Algorithm 1
	// until no cluster is left in the MLFQ.
	SampleBatches int `json:"sample_batches"`
	Inversions    int `json:"inversions"` // second-cycle iterations
}

// Progress is a snapshot of a running discovery, delivered to an
// Observer at every double-cycle stage boundary: once after each
// sampling drain has been admitted into the negative cover (Phase
// "sampled") and once after each inversion into the positive cover
// (Phase "inverted"). Every completed run emits at least one of each.
type Progress struct {
	// Phase is "sampled" after a drain or "inverted" after an inversion.
	Phase string `json:"phase"`
	// Cycle is the zero-based double-cycle iteration the run is in.
	Cycle int `json:"cycle"`
	Counters
}

// Observer receives Progress snapshots from a running discovery. It is
// called synchronously on the discovery goroutine between double-cycle
// stages, so a slow observer slows the run but can never race it; a nil
// Observer is skipped entirely and the observed run computes the exact
// same result as an unobserved one.
type Observer func(Progress)

// Discover runs EulerFD on a relation and returns the approximate set of
// minimal, non-trivial FDs. It is DiscoverContext without cancellation
// or progress reporting.
func Discover(rel *dataset.Relation, opt Options) (*fdset.Set, Stats, error) {
	return DiscoverContext(context.Background(), rel, opt, nil)
}

// DiscoverContext runs EulerFD on a relation under a context, reporting
// per-cycle progress to obs (which may be nil). Cancellation is
// cooperative and checked only between double-cycle stages, so a run
// that completes is bit-identical to an uncancelled one; a run whose
// context is cancelled returns ctx.Err() with a nil FD set. An already
// cancelled context returns before the first sampling pass.
func DiscoverContext(ctx context.Context, rel *dataset.Relation, opt Options, obs Observer) (*fdset.Set, Stats, error) {
	if err := rel.Validate(); err != nil {
		return nil, Stats{}, err
	}
	if err := opt.Validate(); err != nil {
		return nil, Stats{}, err
	}
	start := timing.Start()
	var pre time.Duration
	enc := preprocess.Encode(rel)
	// Measured directly around Encode: deriving it by subtracting stage
	// times from the total both mislabeled double-cycle overhead as
	// preprocessing and could go negative across monotonic-clock
	// adjustments.
	start.SetTo(&pre)
	fds, stats, err := DiscoverEncodedContext(ctx, enc, opt, obs)
	stats.Preprocess = pre
	start.SetTo(&stats.Total)
	if err != nil {
		return nil, stats, err
	}
	return fds, stats, nil
}

// DiscoverEncoded runs EulerFD on an already-encoded relation. It is the
// entry point used by the benchmark harness, which pre-encodes datasets so
// that per-algorithm timings exclude shared preprocessing. It panics on
// invalid options; use DiscoverEncodedContext for an error return.
func DiscoverEncoded(enc *preprocess.Encoded, opt Options) (*fdset.Set, Stats) {
	fds, stats, err := DiscoverEncodedContext(context.Background(), enc, opt, nil)
	if err != nil {
		// Background contexts never cancel, so the only possible error is
		// an invalid Options value.
		panic(err)
	}
	return fds, stats
}

// DiscoverEncodedContext is DiscoverContext over a pre-encoded relation.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded, opt Options, obs Observer) (*fdset.Set, Stats, error) {
	if err := opt.Validate(); err != nil {
		return nil, Stats{}, err
	}
	encStart := timing.Start()
	opt = opt.withDefaults()
	ncols := len(enc.Attrs)
	stats := Stats{Counters: Counters{Rows: enc.NumRows, Cols: ncols}}
	if ncols == 0 {
		return fdset.NewSet(), stats, nil
	}
	// Cancellation contract: an already-cancelled context aborts before
	// the first sampling pass compares a single pair.
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}

	// One persistent pool serves every parallel stage of the run:
	// negative-cover admission shards and inversion shards. With
	// Workers = 1 the pool is nil and every stage runs the exact
	// sequential path.
	pl := pool.New(opt.Workers)
	defer pl.Close()

	sampler := NewSampler(enc, opt)

	// Seed the negative cover with ∅ ↛ A for every non-constant attribute.
	// Cluster-based sampling can only pair rows that agree somewhere, so
	// the empty agree set is otherwise invisible; column cardinalities
	// from preprocessing settle it exactly.
	seed := make([]int, 0, ncols)
	for a := 0; a < ncols; a++ {
		if enc.NumLabels[a] > 1 {
			seed = append(seed, a)
		}
	}

	// First sampling drain, from which the attribute-frequency split rank
	// of the cover trees is derived (Algorithm 2, Line 1).
	first := drain(sampler, &stats)
	rank := cover.AgreeSetRank(ncols, first)
	ncover := cover.NewNCover(ncols, rank)
	pcover := cover.NewPCover(ncols, rank)

	err := runDoubleCycle(ctx, opt, sampler, ncover, pcover, seed, first, pl, &stats, obs)

	stats.PairsCompared = sampler.PairsCompared
	stats.AgreeSets = sampler.SeenCount()
	stats.NcoverSize = ncover.Size()
	stats.PcoverSize = pcover.Size()
	encStart.SetTo(&stats.Total)
	if err != nil {
		return nil, stats, err
	}
	out := pcover.FDs()
	stats.PcoverSize = out.Len()
	return out, stats, nil
}

// CandidatesEncodedContext runs the full double cycle and exports the
// resulting Pcover as a sorted candidate slice — the seeding hook for
// AFD top-k ranking (internal/afd), where EulerFD acts as the candidate
// generator and the error-measure engine as the scorer. It is exactly
// DiscoverEncodedContext with the set flattened to fdset.Set.Slice()
// order, so candidates arrive canonically sorted and deduplicated.
func CandidatesEncodedContext(ctx context.Context, enc *preprocess.Encoded, opt Options, obs Observer) ([]fdset.FD, Stats, error) {
	fds, stats, err := DiscoverEncodedContext(ctx, enc, opt, obs)
	if err != nil {
		return nil, stats, err
	}
	return fds.Slice(), stats, nil
}

// drain runs the sampling module to completion (Sampler.Drain: productive
// clusters are requeued by capa, parked ones wait for a Reseed from the
// double cycle), timing it into stats.Sampling and counting it in
// stats.SampleBatches.
func drain(sampler *Sampler, stats *Stats) []fdset.AttrSet {
	t := timing.Start()
	defer t.AddTo(&stats.Sampling)
	stats.SampleBatches++
	return sampler.Drain()
}

// runDoubleCycle is the shared engine of Figure 1: it admits evidence into
// the negative cover and loops sampling (first cycle, GR_Ncover) and
// inversion (second cycle, GR_Pcover) until both growth criteria settle.
// seed (the RHSs whose ∅ non-FD is new) and first (the first drain's
// agree sets) are admitted before the first inversion; every later drain
// of sampler reports its new agree sets. Both one-shot discovery and the
// incremental bootstrap drive this function.
//
// Cancellation is checked only at stage boundaries — before each drain
// and after each inversion — never inside one, so a run that returns nil
// performed exactly the work an uncancelled run would have (determinism
// invariant I4 is unaffected). Progress snapshots go to obs at the same
// boundaries: "sampled" after a drain's evidence is admitted, "inverted"
// after an inversion.
func runDoubleCycle(ctx context.Context, opt Options, sampler *Sampler, ncover *cover.NCover, pcover *cover.PCover,
	seed []int, first []fdset.AttrSet, pl *pool.Pool, stats *Stats, obs Observer) error {
	// The negative cover marks what it admits pending until the next
	// inversion takes it; a pending set superseded by a later
	// specialization leaves with its leaf, never inverted.
	admit := func(agrees []fdset.AttrSet) int {
		t := timing.Start()
		defer t.AddTo(&stats.NcoverBuild)
		return ncover.Admit(agrees, pl)
	}
	emit := func(phase string, cycle int) {
		if obs == nil {
			return
		}
		obs(Progress{Phase: phase, Cycle: cycle, Counters: Counters{
			Rows:          stats.Rows,
			Cols:          stats.Cols,
			PairsCompared: sampler.PairsCompared,
			AgreeSets:     sampler.SeenCount(),
			NcoverSize:    ncover.Size(),
			PcoverSize:    pcover.Size(),
			SampleBatches: stats.SampleBatches,
			Inversions:    stats.Inversions,
		}})
	}
	lastBefore := ncover.Size()
	t := timing.Start()
	for _, a := range seed {
		ncover.Seed(a)
	}
	t.AddTo(&stats.NcoverBuild)
	lastAdded := admit(first)
	emit("sampled", 0)

	for cycle := 0; ; cycle++ {
		// First cycle: keep draining the sampler while the negative cover
		// still grows faster than Th_Ncover per drain.
		for growthRate(lastAdded, lastBefore) > opt.ThNcover {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !sampler.Reseed() {
				break
			}
			lastBefore = ncover.Size()
			lastAdded = admit(drain(sampler, stats))
			emit("sampled", cycle)
		}

		// Inversion: fold the pending non-FDs into the positive cover,
		// most general first to minimize candidate churn.
		beforeP := pcover.Size()
		t := timing.Start()
		addedP := pcover.InvertPending(ncover, pl)
		t.AddTo(&stats.Inversion)
		stats.Inversions++
		emit("inverted", cycle)
		if err := ctx.Err(); err != nil {
			return err
		}

		grP := growthRate(addedP, beforeP)
		if grP <= opt.ThPcover && (!opt.ExhaustWindows || sampler.Exhausted()) {
			break
		}
		// Second cycle demands more evidence: wake the sampler (clusters
		// parked after capa-0 passes get a fresh chance — "re-sample for
		// optimal trade-off", Section II-B) and run another drain before
		// re-entering the first cycle.
		if !sampler.Reseed() {
			break
		}
		lastBefore = ncover.Size()
		lastAdded = admit(drain(sampler, stats))
		emit("sampled", cycle+1)
	}
	return nil
}

// growthRate is the paper's GR: additions relative to the prior size. A
// growth onto an empty cover counts as full growth.
func growthRate(added, before int) float64 {
	if added == 0 {
		return 0
	}
	if before == 0 {
		return 1
	}
	return float64(added) / float64(before)
}

// String renders run statistics compactly for logs.
func (s Stats) String() string {
	return fmt.Sprintf("rows=%d cols=%d pairs=%d agreeSets=%d ncover=%d pcover=%d batches=%d inversions=%d total=%v",
		s.Rows, s.Cols, s.PairsCompared, s.AgreeSets, s.NcoverSize, s.PcoverSize, s.SampleBatches, s.Inversions, s.Total)
}
