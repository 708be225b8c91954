// Package ensemble runs EulerFD under N seeded sampling schedules and
// votes: each member is one deterministic run (core.Options.Seed picks
// its schedule), members execute concurrently on the shared worker pool,
// and every FD any member reported gets a confidence — the fraction of
// members whose minimal cover implies it. A randomized approximation's
// single flat FD set hides which dependencies are schedule artifacts;
// the vote surfaces them (the Desbordante EulerFD exemplar returns
// 76/78/80 FDs for three seeds against 78 true ones — exactly the spread
// this package measures). Candidates can additionally be cross-checked
// against the exact g3 error on the full relation: g3 > 0 means the FD
// definitionally does not hold, a zero-false-positive suspect flag.
//
// Determinism contract (invariant I4 applies — the package is
// fdlint-gated): the result is a pure function of (relation, Config).
// Member seeds come from core.SeedSequence; members write only their own
// result slot (invariant I3); and the vote merge runs after the pool.Do
// barrier, on the coordinator, reading slots in member-index order — so
// neither Workers nor run-completion order can reach the output.
package ensemble

import (
	"context"
	"runtime"
	"time"

	"eulerfd/internal/afd"
	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/timing"
)

// Config configures an ensemble run.
type Config struct {
	// Euler is the per-member engine configuration. Three fields have
	// ensemble-level meaning: Ensemble is the member count N (≥ 1, with
	// 0 meaning 1), Seed is the base seed member seeds derive from
	// (core.SeedSequence; member 0 runs the base itself), and Workers
	// sizes the pool members run on (0 = runtime.GOMAXPROCS(0)) — each
	// member itself runs sequentially, so one pool.Do spans the whole
	// ensemble.
	Euler core.Options
	// CrossCheck scores every candidate's g3 error on the full relation
	// after the vote. g3 > 0 proves the FD does not hold, so Suspect
	// flags are exact; the check costs one stripped-partition pass per
	// candidate through a shared afd.Scorer.
	CrossCheck bool
	// CacheSize bounds the cross-check scorer's partition cache (entries;
	// 0 selects the afd default). Ignored unless CrossCheck is set.
	CacheSize int
}

// ScoredFD is one voted candidate: an FD some member reported, with the
// fraction of members agreeing. Unlike fdset.ScoredFD's error score,
// Confidence is a belief — higher is better.
type ScoredFD struct {
	FD fdset.FD
	// Votes is how many members' minimal covers imply the FD — contain
	// it, or contain a generalization of it (a member that found A→C
	// also vouches for AB→C).
	Votes int
	// Confidence = Votes / Members, computed by one integer division per
	// candidate so it is bit-identical everywhere.
	Confidence float64
	// G3 is the candidate's exact g3 error on the full relation and
	// Suspect is G3 > 0 (the FD provably does not hold). Both are only
	// populated when Config.CrossCheck is set; see Result.CrossChecked.
	G3      float64
	Suspect bool
}

// Stats reports what an ensemble run did. Pair and agree-set counters
// sum over members; MemberFDs records each member's minimal cover size
// in member order (the spread is the randomization the vote averages).
type Stats struct {
	Rows          int           `json:"rows"`
	Cols          int           `json:"cols"`
	Members       int           `json:"members"`
	PairsCompared int           `json:"pairs_compared"`
	AgreeSets     int           `json:"agree_sets"`
	Candidates    int           `json:"candidates"`
	MajoritySize  int           `json:"majority_size"`
	Suspects      int           `json:"suspects"`
	MemberFDs     []int         `json:"member_fds"`
	Total         time.Duration `json:"total_ns"`
}

// Result is a completed ensemble run. FDs holds every candidate in
// canonical order (fdset.Less on the FD, ignoring confidence).
type Result struct {
	Members      int
	Seed         uint64
	CrossChecked bool
	FDs          []ScoredFD
	Stats        Stats
}

// Majority returns the minimized set of candidates a strict majority of
// members voted for. The inclusion rule is fixed — 2·Votes > Members —
// so an even ensemble's exact ties are excluded on every machine alike
// (the canonical tie-break), and minimization removes specializations
// whose generalization also carried the vote.
func (r *Result) Majority() *fdset.Set {
	s := fdset.NewSet()
	for _, f := range r.FDs {
		if 2*f.Votes > r.Members {
			s.Add(f.FD)
		}
	}
	return s.Minimize()
}

// Observer receives ensemble progress after each member run completes:
// completed counts finished members, total is the member count. Calls
// are serialized (one at a time) and completed is strictly increasing
// 1..total, so the observed sequence is deterministic even though which
// member finishes when is not; member identity is deliberately not
// exposed. A nil Observer is skipped.
type Observer func(completed, total int)

// memberSlot is one member's result, written only by that member's
// pool.Do callback (per-index confinement, invariant I3).
type memberSlot struct {
	fds   *fdset.Set
	stats core.Stats
	err   error
}

// Discover runs the ensemble on an encoded relation. It validates
// cfg.Euler and returns a *core.OptionError on an out-of-range field.
// Cancellation is cooperative: members check ctx at their double-cycle
// stage boundaries, and any member error — a cancelled ctx cancels all
// of them — fails the whole ensemble after the pool barrier, returning
// a nil Result so no partial votes can leak.
func Discover(ctx context.Context, enc *preprocess.Encoded, cfg Config, obs Observer) (*Result, error) {
	if err := cfg.Euler.Validate(); err != nil {
		return nil, err
	}
	start := timing.Start()
	n := cfg.Euler.Ensemble
	if n < 1 {
		n = 1
	}
	workers := cfg.Euler.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	seeds := core.SeedSequence(cfg.Euler.Seed, n)

	// One pool spans the ensemble: members are the unit of parallelism,
	// so each runs the engine's sequential path (Workers = 1 — pool
	// tasks must not call pool.Do).
	pl := pool.New(workers)
	defer pl.Close()

	slots := make([]memberSlot, n)
	var prog progress
	pl.Do(n, func(i int) {
		opt := cfg.Euler
		opt.Workers = 1
		opt.Ensemble = 0
		opt.Seed = seeds[i]
		slots[i].fds, slots[i].stats, slots[i].err = core.DiscoverEncodedContext(ctx, enc, opt, nil)
		prog.step(obs, n)
	})
	// Fail on the smallest erring member index: deterministic, and under
	// cancellation every member reports ctx.Err() anyway.
	for i := range slots {
		if slots[i].err != nil {
			return nil, slots[i].err
		}
	}

	members := make([]*fdset.Set, n)
	stats := Stats{Rows: enc.NumRows, Cols: len(enc.Attrs), Members: n, MemberFDs: make([]int, n)}
	for i := range slots {
		members[i] = slots[i].fds
		stats.MemberFDs[i] = slots[i].fds.Len()
		stats.PairsCompared += slots[i].stats.PairsCompared
		stats.AgreeSets += slots[i].stats.AgreeSets
	}

	fds := mergeVotes(members)
	res := &Result{Members: n, Seed: cfg.Euler.Seed, FDs: fds}
	if cfg.CrossCheck {
		res.CrossChecked = true
		scorer := afd.NewScorer(enc, cfg.CacheSize)
		for i := range res.FDs {
			g3 := scorer.Score(afd.G3, res.FDs[i].FD.LHS, res.FDs[i].FD.RHS)
			res.FDs[i].G3 = g3
			res.FDs[i].Suspect = g3 > 0
			if res.FDs[i].Suspect {
				stats.Suspects++
			}
		}
	}
	stats.Candidates = len(fds)
	stats.MajoritySize = res.Majority().Len()
	start.SetTo(&stats.Total)
	res.Stats = stats
	return res, nil
}
