package core

import (
	"context"
	"fmt"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/timing"
)

// Incremental maintains an EulerFD result across row mutations — the DMS
// deployment pattern, where relations grow by periodic imports and are
// corrected by deletes and updates.
//
// The first committed batch bootstraps: it runs the sampling double cycle
// and, alongside the usual covers, tallies per-agree-set witness counts in
// (pair × shared attribute) units. Every later batch is a delta: each
// touched row is paired only against the current relation (delta × all,
// never all × all), producing a net witness delta per agree set. Appends
// can only add violations, so their evidence folds in through the same
// incremental inversion the double cycle uses; deletes and updates can
// *retire* violations — when a maximal non-FD's witness count reaches
// zero it leaves the negative cover, still-witnessed subsets it dominated
// are re-admitted, and each positive-cover tree that lost a non-FD is
// patched inside the region the retired sets span (cover.PCover.Retire)
// after every tree has inverted the batch's admissions forward.
//
// Under Options.ExhaustWindows the bootstrap counts every intra-cluster
// pair exactly once per shared-attribute cluster, so witness counts are
// exact and any mutation sequence yields the exact minimal cover of the
// final relation; a batch that would take a tally below zero fails with
// ErrWitnessOvershoot and commits nothing. Without it, bootstrap counts
// are lower bounds (sampling skips pairs): decrements clamp at zero
// (Stats.Clamped counts them), so deletes may retire evidence early —
// the same flavor of approximation sampling itself introduces.
//
// Batches are atomic: evidence gathering (phase one) is cancellable and
// touches nothing, the commit (phase two) is not cancellable. A cancelled
// delta batch therefore rolls back to the last committed version for
// free. Only a cancelled or failed *bootstrap* poisons the Incremental
// (its covers are partially built); every later call returns ErrPoisoned.
type Incremental struct {
	opt     Options
	name    string
	encoder *preprocess.Encoder
	ncover  *cover.NCover
	pcover  *cover.PCover
	seeded  []bool // by RHS attribute: its ∅ non-FD is already recorded
	ncols   int

	// witness tallies each agree set in (pair × shared attribute) units,
	// a counted table. An entry exists iff its count is positive.
	witness *cover.Masks
	// deltaChunk is the pair count of one delta-scan chunk:
	// deltaChunkPairs, unless a test shrinks it.
	deltaChunk int

	version  int64
	poisoned bool

	// Appends counts the batches committed so far (of any kind, for
	// backward compatibility with the original append-only counter);
	// Deletes and Updates count rows deleted and rewritten.
	Appends int
	Deletes int
	Updates int
}

// NewIncremental prepares incremental discovery over a schema. It
// validates opt and returns a *OptionError on an out-of-range field.
func NewIncremental(name string, attrs []string, opt Options) (*Incremental, error) {
	if len(attrs) > fdset.MaxAttrs {
		return nil, fmt.Errorf("core: %d attributes exceed the %d-attribute limit", len(attrs), fdset.MaxAttrs)
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ncols := len(attrs)
	return &Incremental{
		opt:     opt.withDefaults(),
		name:    name,
		encoder: preprocess.NewEncoder(attrs),
		// Split ranks need global attribute frequencies, which shift as
		// data grows; incremental covers use natural order.
		ncover:     cover.NewNCover(ncols, nil),
		pcover:     cover.NewPCover(ncols, nil),
		seeded:     make([]bool, ncols),
		ncols:      ncols,
		witness:    cover.NewMasks(preprocess.MaskWords(ncols), true, false),
		deltaChunk: deltaChunkPairs,
	}, nil
}

// NumRows returns the alive rows absorbed so far.
func (inc *Incremental) NumRows() int { return inc.encoder.NumRows() }

// Version returns the number of committed mutation batches. It is the
// monotone session version fdserve echoes on every read: 0 before the
// bootstrap commits, then +1 per committed batch.
func (inc *Incremental) Version() int64 { return inc.version }

// NextID returns the id the next appended row will receive. Row ids are
// assigned sequentially from 0 in append order and survive compaction.
func (inc *Incremental) NextID() int64 { return inc.encoder.NextID() }

// Poisoned reports whether a cancelled or failed bootstrap left the
// covers partially built (see ErrPoisoned).
func (inc *Incremental) Poisoned() bool { return inc.poisoned }

// Append folds a batch of rows into the result, as a one-mutation batch.
func (inc *Incremental) Append(rows [][]string) (Stats, error) {
	return inc.Apply(MutationBatch{Mutations: []Mutation{AppendOp(rows)}})
}

// Delete removes the given rows by id, as a one-mutation batch.
func (inc *Incremental) Delete(rowIDs []int64) (Stats, error) {
	return inc.Apply(MutationBatch{Mutations: []Mutation{DeleteOp(rowIDs...)}})
}

// Update rewrites one row by id, as a one-mutation batch.
func (inc *Incremental) Update(rowID int64, row []string) (Stats, error) {
	return inc.Apply(MutationBatch{Mutations: []Mutation{UpdateOp([]int64{rowID}, [][]string{row})}})
}

// Apply commits a mutation batch. It is ApplyContext without cancellation
// or progress.
func (inc *Incremental) Apply(batch MutationBatch) (Stats, error) {
	return inc.ApplyContext(context.Background(), batch, nil)
}

// ApplyContext atomically commits a mutation batch under a context,
// reporting progress to obs (which may be nil): one "sampled" snapshot
// after the delta scan and one "inverted" after the covers are patched.
// Cancellation is checked during the scan and once more before the
// commit; past that point the batch always commits. On any error —
// cancellation included — nothing was applied and the Incremental still
// reflects its last committed version. The first committed batch must be
// append-only (there are no rows to delete or update yet) and bootstraps
// via the sampling double cycle.
func (inc *Incremental) ApplyContext(ctx context.Context, batch MutationBatch, obs Observer) (Stats, error) {
	if inc.poisoned {
		return Stats{}, ErrPoisoned
	}
	if err := batch.Validate(inc.ncols); err != nil {
		return Stats{}, err
	}
	if inc.version == 0 {
		rows, err := batch.appendOnlyRows()
		if err != nil {
			return Stats{}, err
		}
		return inc.bootstrapContext(ctx, rows, obs)
	}
	return inc.applyDelta(ctx, batch, obs)
}

// bootstrapContext runs the first batch through the sampling double cycle
// over the whole (young) relation, tallying witness counts as it sweeps.
// A cancelled or failed bootstrap poisons the Incremental: its rows are
// absorbed but the covers are only partially built.
func (inc *Incremental) bootstrapContext(ctx context.Context, rows [][]string, obs Observer) (Stats, error) {
	start := timing.Start()
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	if err := inc.encoder.Append(rows); err != nil {
		return Stats{}, err
	}
	enc := inc.encoder.Snapshot(inc.name)
	stats := Stats{Counters: Counters{Rows: enc.NumRows, Cols: inc.ncols}}
	if inc.ncols == 0 {
		inc.version++
		inc.Appends++
		start.SetTo(&stats.Total)
		return stats, nil
	}

	// The pool lives for one batch, matching run lifetime as in
	// DiscoverEncoded.
	pl := pool.New(inc.opt.Workers)
	defer pl.Close()

	sampler := NewSampler(enc, inc.opt)
	sampler.SetWitness(inc.witness)

	// ∅ seeding: the relation is young but a column may already vary.
	var seed []int
	for a := 0; a < inc.ncols; a++ {
		if !inc.seeded[a] && enc.NumLabels[a] > 1 {
			inc.seeded[a] = true
			seed = append(seed, a)
		}
	}

	first := drain(sampler, &stats)
	err := runDoubleCycle(ctx, inc.opt, sampler, inc.ncover, inc.pcover, seed, first, pl, &stats, obs)

	stats.PairsCompared = sampler.PairsCompared
	stats.AgreeSets = sampler.SeenCount()
	stats.NcoverSize = inc.ncover.Size()
	stats.PcoverSize = inc.pcover.Size()
	start.SetTo(&stats.Total)
	if err != nil {
		inc.poisoned = true
		return stats, err
	}
	inc.version++
	inc.Appends++
	return stats, nil
}

// applyDelta is the two-phase delta path for every batch after the
// bootstrap. Phase one (cancellable) scans the batch against a virtual
// overlay of the relation; phase two (uncancellable) commits the encoder
// operations, merges the witness delta, and patches both covers.
func (inc *Incremental) applyDelta(ctx context.Context, batch MutationBatch, obs Observer) (Stats, error) {
	start := timing.Start()
	stats := Stats{Counters: Counters{Cols: inc.ncols}}
	if err := ctx.Err(); err != nil {
		return stats, err
	}

	// The pool lives for one batch: phase one shards the delta scan's
	// chunked sweeps, phase two shards cover patching.
	pl := pool.New(inc.opt.Workers)
	defer pl.Close()

	b := newBatchState(inc, pl)
	tScan := timing.Start()
	if err := b.run(ctx, batch); err != nil {
		return stats, err
	}
	tScan.AddTo(&stats.Sampling)
	stats.PairsCompared = b.pairs
	if inc.opt.ExhaustWindows {
		if err := inc.checkWitness(b.d); err != nil {
			return stats, err
		}
	}

	emit := func(phase string, rows int) {
		if obs == nil {
			return
		}
		obs(Progress{Phase: phase, Counters: Counters{
			Rows:          rows,
			Cols:          inc.ncols,
			PairsCompared: b.pairs,
			AgreeSets:     inc.witness.Len(),
			NcoverSize:    inc.ncover.Size(),
			PcoverSize:    inc.pcover.Size(),
			Inversions:    stats.Inversions,
		}})
	}
	emit("sampled", b.virtualRows())
	// Last cancellation point: past here the batch commits unconditionally,
	// which is what keeps a cancelled batch a clean no-op.
	if err := ctx.Err(); err != nil {
		return stats, err
	}

	tPatch := timing.Start()
	b.commitEncoder()
	realized, retired, clamped := inc.mergeWitness(b.d)
	stats.Clamped = clamped
	inc.patchCovers(realized, retired, pl, &stats)
	tPatch.AddTo(&stats.Inversion)

	inc.version++
	inc.Appends++
	inc.Deletes += b.deletes
	inc.Updates += b.updates
	stats.Rows = inc.encoder.NumRows()
	stats.AgreeSets = inc.witness.Len()
	stats.NcoverSize = inc.ncover.Size()
	stats.PcoverSize = inc.pcover.Size()
	stats.Inversions++
	start.SetTo(&stats.Total)
	emit("inverted", stats.Rows)
	return stats, nil
}

// checkWitness is a read-only pass over the batch's net delta, for
// exhaustive tallies only: it returns ErrWitnessOvershoot for the first
// agree set, in first-touch order, whose tally the delta would take
// below zero.
func (inc *Incremental) checkWitness(d *cover.Masks) error {
	var err error
	d.EachOrdered(func(m []uint64, dv int64) {
		if old := inc.witness.Get(m); err == nil && old+dv < 0 {
			err = fmt.Errorf("%w: agree set %v has tally %d and batch delta %d", ErrWitnessOvershoot, fdset.FromWords(m), old, dv)
		}
	})
	return err
}

// mergeWitness folds the batch's net delta into the long-lived witness
// tallies, in the scan's first-touch order so the realized and retired
// lists are deterministic. An agree set whose count rises from zero is
// realized (new evidence to admit); one whose count falls to zero is
// retired (its last witness died). Counts clamp at zero, and clamped
// counts the decrements that would have gone below it: with a
// non-exhaustive bootstrap the tallies are lower bounds, so a decrement
// can overshoot evidence that was never counted.
func (inc *Incremental) mergeWitness(d *cover.Masks) (realized, retired []fdset.AttrSet, clamped int) {
	d.EachOrdered(func(m []uint64, dv int64) {
		if dv == 0 {
			return
		}
		old := inc.witness.Get(m)
		now := old + dv
		if now < 0 {
			clamped++
			now = 0
		}
		inc.witness.Put(m, now)
		switch {
		case now == 0 && old > 0:
			retired = append(retired, fdset.FromWords(m))
		case now > 0 && old == 0:
			realized = append(realized, fdset.FromWords(m))
		}
	})
	return realized, retired, clamped
}

// patchCovers folds one batch's realized and retired agree sets into the
// negative and positive covers:
//
//  1. ∅-seed transitions from alive column cardinalities: a column that
//     starts varying admits ∅ ↛ a; one that collapses back to constant
//     retires it.
//  2. Admissions: new ∅ seeds, then the realized sets in descending
//     cardinality (the batch order that only rejects dominated sets),
//     enter the negative cover marked pending, exactly like a
//     double-cycle drain.
//  3. Retirements: each retired set leaves every per-RHS tree that stored
//     it. A retired set superseded during this batch's admissions is
//     already gone — its region is consistent without patching.
//  4. Re-admission: alive agree sets dominated only by a removed maximal
//     set may now be maximal themselves; candidates (subsets of a removed
//     set) re-enter affected trees in descending cardinality, unmarked.
//     A tree left empty while its column still varies re-seeds ∅.
//  5. Positive cover: every RHS inverts its pending non-FDs forward, as
//     the double cycle does. Inversion cannot run backwards, so each RHS
//     with a removal is then patched inside the region its removed sets
//     span (cover.PCover.Retire), from its patched negative-cover tree.
//
// Steps 1 and 3 never remove a pending set: step 1 runs before the
// admissions, ∅ is never tallied and so never retired, and a mask the
// batch realized is not one it retired (mergeWitness).
func (inc *Incremental) patchCovers(realized, retired []fdset.AttrSet, pl *pool.Pool, stats *Stats) {
	affected := make([]bool, inc.ncols)
	removedBy := make([][]fdset.AttrSet, inc.ncols)

	// 1. ∅-seed transitions.
	var seeds []int
	for a := 0; a < inc.ncols; a++ {
		varying := inc.encoder.AliveDistinct(a) > 1
		switch {
		case varying && !inc.seeded[a]:
			inc.seeded[a] = true
			seeds = append(seeds, a)
		case !varying && inc.seeded[a]:
			inc.seeded[a] = false
			if inc.ncover.RemoveLHS(a, fdset.EmptySet()) {
				affected[a] = true
				stats.Retired++
			}
		}
	}

	// 2. Admissions. Each RHS admits its seed before the realized sets,
	// the per-RHS order of the double cycle's seeding.
	for _, a := range seeds {
		inc.ncover.Seed(a)
	}
	fdset.SortSetsDesc(realized)
	inc.ncover.Admit(realized, pl)

	// 3. Retirements.
	fdset.SortSetsDesc(retired)
	for _, m := range retired {
		for rhs := 0; rhs < inc.ncols; rhs++ {
			if m.Has(rhs) {
				continue
			}
			if inc.ncover.RemoveLHS(rhs, m) {
				removedBy[rhs] = append(removedBy[rhs], m)
				affected[rhs] = true
				stats.Retired++
			}
		}
	}

	// 4. Re-admission of newly maximal evidence. Any newly maximal alive
	// set must be a subset of some removed maximal set (otherwise what
	// dominated it is still stored), so candidates — every alive agree
	// set below a removal — come from one witness sweep against the union
	// of removals.
	var removedAll []fdset.AttrSet
	for _, removed := range removedBy {
		removedAll = append(removedAll, removed...)
	}
	if len(removedAll) > 0 {
		candidates := inc.witnessSubsets(removedAll)
		for rhs, removed := range removedBy {
			for _, t := range candidates {
				if !t.Has(rhs) && subsetOfAny(t, removed) {
					inc.ncover.Readmit(rhs, t)
				}
			}
		}
	}
	for rhs, a := range affected {
		if a {
			stats.PatchedRHS++
			if inc.seeded[rhs] && inc.ncover.Tree(rhs).Size() == 0 {
				inc.ncover.Readmit(rhs, fdset.EmptySet())
			}
		}
	}

	// 5. Positive cover: invert pending admissions into every RHS, then
	// patch the affected ones (disjoint trees, so the pool shards
	// race-free).
	inc.pcover.InvertPending(inc.ncover, pl)
	if stats.PatchedRHS > 0 {
		pl.Do(inc.ncols, func(rhs int) {
			if affected[rhs] {
				inc.pcover.Retire(rhs, removedBy[rhs], inc.ncover.Tree(rhs).Sets())
			}
		})
	}
}

// witnessSubsets returns every witnessed agree set that is a subset of
// some set in list, in fdset.SortSetsDesc order.
func (inc *Incremental) witnessSubsets(list []fdset.AttrSet) []fdset.AttrSet {
	var out []fdset.AttrSet
	inc.witness.Each(func(m []uint64) {
		if s := fdset.FromWords(m); subsetOfAny(s, list) {
			out = append(out, s)
		}
	})
	fdset.SortSetsDesc(out)
	return out
}

// FDs returns the current approximate set of minimal non-trivial FDs.
func (inc *Incremental) FDs() *fdset.Set {
	return inc.pcover.FDs()
}

// Snapshot returns an encoded view of the alive rows, for read-only
// consumers such as the AFD scorer (fdserve's /afds endpoint). While the
// relation has only ever grown, the snapshot shares the encoder's label
// storage (appends only write beyond its length); once deletes or updates
// have happened it is an independent densified copy, so either way it
// stays valid and immutable across later batches. Snapshot.RowIDs carries
// the stable external ids. It must not be taken concurrently with a
// running batch.
func (inc *Incremental) Snapshot() *preprocess.Encoded {
	return inc.encoder.Snapshot(inc.name)
}
