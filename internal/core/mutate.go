package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
)

// Mutation operation names — the stable wire vocabulary of the mutation
// log (fdserve's POST /v1/sessions/{id}/mutations and the repo root's
// exported types).
const (
	OpAppend = "append"
	OpDelete = "delete"
	OpUpdate = "update"
)

// Mutation is one operation of a mutation batch. The JSON tags are the
// stable wire shape: {"op":"append","rows":[...]}, {"op":"delete",
// "ids":[...]}, {"op":"update","ids":[...],"rows":[...]} — update rewrites
// ids[k] to rows[k] pairwise. Row ids are assigned sequentially from 0 in
// append order and survive compaction; within a batch, rows appended by an
// earlier mutation can already be addressed by their (predictable) ids.
type Mutation struct {
	Op   string     `json:"op"`
	Rows [][]string `json:"rows,omitempty"`
	IDs  []int64    `json:"ids,omitempty"`
}

// MutationBatch is an ordered list of mutations applied atomically: either
// every operation commits (one version step) or none does.
type MutationBatch struct {
	Mutations []Mutation `json:"mutations"`
}

// AppendOp builds an append mutation.
func AppendOp(rows [][]string) Mutation { return Mutation{Op: OpAppend, Rows: rows} }

// DeleteOp builds a delete mutation.
func DeleteOp(ids ...int64) Mutation { return Mutation{Op: OpDelete, IDs: ids} }

// UpdateOp builds an update mutation rewriting ids[k] to rows[k].
func UpdateOp(ids []int64, rows [][]string) Mutation {
	return Mutation{Op: OpUpdate, IDs: ids, Rows: rows}
}

// MutationError reports a mutation that cannot be applied — a malformed
// operation or a row id that is unknown or already deleted. Index is the
// position of the offending mutation within its batch. Because batches are
// two-phase, a MutationError always means nothing was applied.
type MutationError struct {
	Index  int
	Op     string
	Reason string
}

func (e *MutationError) Error() string {
	return fmt.Sprintf("core: mutation %d (%s): %s", e.Index, e.Op, e.Reason)
}

// Validate checks the mutation's shape against the schema width. It does
// not resolve ids (that needs the relation and happens under ApplyContext).
func (m Mutation) Validate(index, ncols int) error {
	fail := func(reason string) error {
		return &MutationError{Index: index, Op: m.Op, Reason: reason}
	}
	switch m.Op {
	case OpAppend:
		if len(m.IDs) != 0 {
			return fail("append takes rows, not ids")
		}
	case OpDelete:
		if len(m.Rows) != 0 {
			return fail("delete takes ids, not rows")
		}
	case OpUpdate:
		if len(m.IDs) != len(m.Rows) {
			return fail(fmt.Sprintf("update pairs ids with rows: got %d ids, %d rows", len(m.IDs), len(m.Rows)))
		}
	default:
		return fail(`op must be "append", "delete", or "update"`)
	}
	for _, row := range m.Rows {
		if len(row) != ncols {
			return fail(fmt.Sprintf("row has %d cells, schema has %d attributes", len(row), ncols))
		}
	}
	for _, id := range m.IDs {
		if id < 0 {
			return fail(fmt.Sprintf("row id %d is negative", id))
		}
	}
	return nil
}

// Validate checks every mutation's shape against the schema width.
func (b MutationBatch) Validate(ncols int) error {
	for i, m := range b.Mutations {
		if err := m.Validate(i, ncols); err != nil {
			return err
		}
	}
	return nil
}

// appendOnlyRows flattens an all-append batch into one row slice — the
// bootstrap path, which runs sampling-based discovery instead of the delta
// scan. Delete and update before any committed batch have nothing to
// address and are rejected.
func (b MutationBatch) appendOnlyRows() ([][]string, error) {
	var rows [][]string
	for i, m := range b.Mutations {
		if m.Op != OpAppend {
			return nil, &MutationError{Index: i, Op: m.Op, Reason: "cannot delete or update before any batch has committed"}
		}
		rows = append(rows, m.Rows...)
	}
	return rows, nil
}

// ErrPoisoned is returned by every mutating call after a cancelled or
// failed bootstrap: the first batch's rows were absorbed but its covers
// were only partially built, so no later result would reflect the data.
// Delta batches never poison — they are two-phase and roll back to the
// last committed version. Callers should discard the Incremental.
var ErrPoisoned = errors.New("core: a cancelled or failed bootstrap left the covers partially built; discard this Incremental")

// ErrWitnessOvershoot is returned by a delta batch under
// Options.ExhaustWindows whose witness delta would take an agree set's
// tally below zero. Exhaustive tallies are exact, so an overshoot means
// the tallies no longer match the relation: a bug, not bad input. The
// check runs before the commit, so the batch is not applied.
var ErrWitnessOvershoot = errors.New("core: a batch would take an exact witness tally below zero")

// deltaChunkPairs is the number of pair comparisons one chunk of the
// delta scan performs between cancellation checks: larger chunks amortize
// the check, smaller ones cancel faster. Incremental.deltaChunk holds it,
// so tests can shrink it to force multi-chunk sweeps.
const deltaChunkPairs = 8192

// deltaChunk is the result scratch of one chunk of a delta sweep: the
// agree masks of up to deltaChunkPairs consecutive base slots. Each
// concurrent chunk owns exactly one deltaChunk, so workers never share
// mutable result state; buffers are reused across sweeps.
type deltaChunk struct {
	from, to int // positions [from, to) of baseAlive covered by this chunk
	masks    []uint64
}

// extraRow is a row of the batch's virtual overlay: either a staged append
// (baseSlot < 0, addressed by the predicted id nextID+appendIdx) or the
// rewritten content of a base row (baseSlot ≥ 0, keeping id).
type extraRow struct {
	labels   []int32
	packed   []uint64 // labels packed at the encoder's lane width
	baseSlot int32    // ≥ 0: update target's encoder slot; -1: staged append
	id       int64    // external id (predicted for staged appends)
	dead     bool
}

// batchState is the evidence-gathering phase of one mutation batch: a
// virtual overlay of the relation (alive base slots minus this batch's
// removals, plus staged rows) against which every operation's pairwise
// witness delta is scanned. Nothing here touches the Incremental — a
// cancelled or failing batch is simply dropped, which is what makes
// batches atomic.
type batchState struct {
	inc     *Incremental
	enc     *preprocess.Encoder
	staging *preprocess.Staging

	baseAlive []int32    // ascending alive base slots still untouched by this batch
	extras    []extraRow // staged appends and rewritten base rows, in creation order

	baseNextID  int64
	appendCount int
	appendIdx   []int              // staged-append index → extras index
	replacedIdx map[int64]int      // base id rewritten this batch → extras index
	deletedBase map[int64]struct{} // base ids deleted this batch

	deleteIDs []int64 // ids to tombstone at commit, in operation order

	// d accumulates the net witness delta of the batch in (pair × shared
	// attribute) units, the same unit the bootstrap sampler tallies: each
	// scanned pair adds or subtracts popcount(agree) from its agree set's
	// entry. It is a counted, ordered table, so the commit merges its keys
	// in first-touch order.
	d     *cover.Masks
	pairs int

	one []uint64 // the agree mask of one pair against a staged row

	// pool, when non-nil, parallelizes base-slot sweeps of more than one
	// chunk; chunks merge in position order either way (scanBase).
	pool   *pool.Pool
	chunks []deltaChunk // per-chunk result scratch, reused across sweeps

	appends, deletes, updates int
}

func newBatchState(inc *Incremental, pl *pool.Pool) *batchState {
	mw := preprocess.MaskWords(inc.ncols)
	return &batchState{
		inc:         inc,
		enc:         inc.encoder,
		staging:     inc.encoder.NewStaging(),
		baseAlive:   inc.encoder.AliveSlots(nil),
		baseNextID:  inc.encoder.NextID(),
		replacedIdx: make(map[int64]int),
		deletedBase: make(map[int64]struct{}),
		d:           cover.NewMasks(mw, true, true),
		one:         make([]uint64, mw),
		pool:        pl,
	}
}

// resolve addresses a row id against the virtual state. It returns the
// extras index (≥ 0) for rows this batch staged or rewrote, or ei = -1
// with the base slot for untouched base rows.
func (b *batchState) resolve(index int, m Mutation, id int64) (ei int, slot int, err error) {
	fail := func(reason string) error {
		return &MutationError{Index: index, Op: m.Op, Reason: reason}
	}
	if id >= b.baseNextID {
		ai := id - b.baseNextID
		if ai >= int64(len(b.appendIdx)) {
			return 0, 0, fail(fmt.Sprintf("row id %d is unknown", id))
		}
		ei = b.appendIdx[ai]
		if b.extras[ei].dead {
			return 0, 0, fail(fmt.Sprintf("row id %d is already deleted", id))
		}
		return ei, 0, nil
	}
	if ei, ok := b.replacedIdx[id]; ok {
		if b.extras[ei].dead {
			return 0, 0, fail(fmt.Sprintf("row id %d is already deleted", id))
		}
		return ei, 0, nil
	}
	if _, ok := b.deletedBase[id]; ok {
		return 0, 0, fail(fmt.Sprintf("row id %d is already deleted", id))
	}
	s, ok := b.enc.Lookup(id)
	if !ok {
		return 0, 0, fail(fmt.Sprintf("row id %d is unknown or deleted", id))
	}
	return -1, s, nil
}

// removeBase drops a slot from the virtual alive-slot list.
func (b *batchState) removeBase(slot int) {
	i := sort.Search(len(b.baseAlive), func(k int) bool { return b.baseAlive[k] >= int32(slot) })
	b.baseAlive = append(b.baseAlive[:i], b.baseAlive[i+1:]...)
}

// pack packs a staged row at the encoder's lane width. When its labels
// widen the encoder, every staged row packed earlier is repacked so all
// rows of the overlay share one width.
func (b *batchState) pack(labels []int32) []uint64 {
	packed, widened := b.enc.PackRow(labels, nil)
	if widened {
		for ei := range b.extras {
			ex := &b.extras[ei]
			ex.packed, _ = b.enc.PackRow(ex.labels, ex.packed)
		}
	}
	return packed
}

// scan folds the agree sets of (row × every virtual alive row) into the
// witness delta with the given sign; row is packed at the encoder's lane
// width. The caller must already have removed the row itself from the
// virtual state, so a row is never paired with itself.
func (b *batchState) scan(ctx context.Context, row []uint64, sign int64) error {
	if err := b.scanBase(ctx, row, sign); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for ei := range b.extras {
		ex := &b.extras[ei]
		if ex.dead {
			continue
		}
		b.enc.AgreeRowsWords(row, ex.packed, b.one)
		b.d.AddRuns(b.one, sign, true)
		b.pairs++
	}
	return nil
}

// scanBase sweeps row against the untouched base slots in chunks of
// Incremental.deltaChunk pairs. Each chunk computes its agree masks with
// the batched kernel, and the chunks merge into the witness delta in
// position order, a run of identical consecutive masks — as common here
// as in the sampler's windows — as one add. With a pool attached, a sweep's chunks run concurrently
// and merge after all finish; without one, each merges as it completes.
// The merge makes the identical sequence of adds either way, so the
// delta's first-touch key order — what makes mergeWitness deterministic —
// and every tally are the same. Cancellation is checked before and after
// each wave of chunks, and a cancelled wave merges nothing.
func (b *batchState) scanBase(ctx context.Context, row []uint64, sign int64) error {
	n, size := len(b.baseAlive), b.inc.deltaChunk
	numChunks := (n + size - 1) / size
	wave := 1
	if b.pool != nil {
		wave = max(numChunks, 1)
	}
	for len(b.chunks) < wave {
		b.chunks = append(b.chunks, deltaChunk{})
	}
	mw := len(b.one) // words per mask
	for k0 := 0; k0 < numChunks; k0 += wave {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunks := b.chunks[:min(wave, numChunks-k0)]
		for k := range chunks {
			from := (k0 + k) * size
			chunks[k].from, chunks[k].to = from, min(from+size, n)
		}
		b.pool.Do(len(chunks), func(k int) {
			if ctx.Err() != nil {
				return // the check after Do discards the whole wave
			}
			ch := &chunks[k]
			m := (ch.to - ch.from) * mw
			if cap(ch.masks) < m {
				ch.masks = make([]uint64, m)
			}
			ch.masks = ch.masks[:m]
			b.enc.AgreeSlotsWords(row, b.baseAlive[ch.from:ch.to], ch.masks)
		})
		if err := ctx.Err(); err != nil {
			return err
		}
		for k := range chunks {
			b.d.AddRuns(chunks[k].masks, sign, true)
			b.pairs += chunks[k].to - chunks[k].from
		}
	}
	return nil
}

// run executes phase one: every operation is validated, resolved, and
// scanned against the virtual overlay in order. Any error (including
// cancellation) aborts with the Incremental untouched.
func (b *batchState) run(ctx context.Context, batch MutationBatch) error {
	for i, m := range batch.Mutations {
		switch m.Op {
		case OpAppend:
			for _, row := range m.Rows {
				labels, err := b.staging.EncodeRow(row)
				if err != nil {
					return &MutationError{Index: i, Op: m.Op, Reason: err.Error()}
				}
				packed := b.pack(labels)
				if err := b.scan(ctx, packed, +1); err != nil {
					return err
				}
				b.extras = append(b.extras, extraRow{
					labels:   labels,
					packed:   packed,
					baseSlot: -1,
					id:       b.baseNextID + int64(b.appendCount),
				})
				b.appendIdx = append(b.appendIdx, len(b.extras)-1)
				b.appendCount++
				b.appends++
			}
		case OpDelete:
			for _, id := range m.IDs {
				ei, slot, err := b.resolve(i, m, id)
				if err != nil {
					return err
				}
				var old []uint64
				if ei >= 0 {
					b.extras[ei].dead = true
					old = b.extras[ei].packed
				} else {
					b.removeBase(slot)
					b.deletedBase[id] = struct{}{}
					old = b.enc.Row(slot)
				}
				b.deleteIDs = append(b.deleteIDs, id)
				if err := b.scan(ctx, old, -1); err != nil {
					return err
				}
				b.deletes++
			}
		case OpUpdate:
			for k, id := range m.IDs {
				ei, slot, err := b.resolve(i, m, id)
				if err != nil {
					return err
				}
				labels, encErr := b.staging.EncodeRow(m.Rows[k])
				if encErr != nil {
					return &MutationError{Index: i, Op: m.Op, Reason: encErr.Error()}
				}
				// Packing may widen the encoder, so the rows scanned out
				// below are read only after it.
				packed := b.pack(labels)
				if ei >= 0 {
					// Rewriting a row this batch already staged: swap its
					// content in place, scanning it out and back in.
					ex := &b.extras[ei]
					ex.dead = true
					if err := b.scan(ctx, ex.packed, -1); err != nil {
						return err
					}
					if err := b.scan(ctx, packed, +1); err != nil {
						return err
					}
					ex.labels, ex.packed = labels, packed
					ex.dead = false
				} else {
					b.removeBase(slot)
					if err := b.scan(ctx, b.enc.Row(slot), -1); err != nil {
						return err
					}
					if err := b.scan(ctx, packed, +1); err != nil {
						return err
					}
					b.extras = append(b.extras, extraRow{
						labels:   labels,
						packed:   packed,
						baseSlot: int32(slot),
						id:       id,
					})
					b.replacedIdx[id] = len(b.extras) - 1
				}
				b.updates++
			}
		}
	}
	return nil
}

// virtualRows is the alive row count of the overlay, reported in the
// "sampled" progress snapshot before the batch commits.
func (b *batchState) virtualRows() int {
	n := len(b.baseAlive)
	for ei := range b.extras {
		if !b.extras[ei].dead {
			n++
		}
	}
	return n
}

// commitEncoder applies the staged operations to the encoder, in an order
// that keeps predicted ids exact: the dictionary overlay merges, every
// staged append lands (even ones deleted later in the batch, so ids line
// up), surviving rewrites replace in place, deletions tombstone, and
// bounded compaction may densify the spine.
func (b *batchState) commitEncoder() {
	b.staging.Commit()
	for ei := range b.extras {
		ex := &b.extras[ei]
		if ex.baseSlot < 0 {
			b.enc.AppendEncoded(ex.labels)
		}
	}
	for ei := range b.extras {
		ex := &b.extras[ei]
		if ex.baseSlot >= 0 && !ex.dead {
			b.enc.Replace(ex.id, ex.labels)
		}
	}
	for _, id := range b.deleteIDs {
		b.enc.Delete(id)
	}
	b.enc.MaybeCompact()
}

// subsetOfAny reports whether s is a subset of any set in list.
func subsetOfAny(s fdset.AttrSet, list []fdset.AttrSet) bool {
	for _, m := range list {
		if s.IsSubsetOf(m) {
			return true
		}
	}
	return false
}
