package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"

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

// defaultDeltaChunkPairs is the Options.DeltaChunkPairs default: pair
// comparisons per delta-scan chunk between cancellation checks.
const defaultDeltaChunkPairs = 8192

// deltaScan accumulates the net witness delta of one mutation batch in
// (pair × shared attribute) units, the same unit the bootstrap sampler
// tallies: each scanned pair adds or subtracts popcount(agree) from its
// agree set's entry. Keys are recorded in first-touch order so the commit
// merges them deterministically regardless of map iteration. The word/set
// split mirrors the sampler's (≤ 64 columns vs wide).
type deltaScan struct {
	dw      map[uint64]int64
	dwOrder []uint64
	ds      map[fdset.AttrSet]int64
	dsOrder []fdset.AttrSet
}

func (d *deltaScan) addWord(w uint64, pairs, sign int64) {
	if w == 0 {
		// Pairs agreeing nowhere lie in no cluster: the bootstrap never
		// counted them and ∅ non-FDs are settled by column cardinality.
		return
	}
	v, ok := d.dw[w]
	if !ok {
		d.dwOrder = append(d.dwOrder, w)
	}
	d.dw[w] = v + sign*pairs*int64(bits.OnesCount64(w))
}

func (d *deltaScan) addSet(s fdset.AttrSet, count int, pairs, sign int64) {
	if count == 0 {
		return
	}
	v, ok := d.ds[s]
	if !ok {
		d.dsOrder = append(d.dsOrder, s)
	}
	d.ds[s] = v + sign*pairs*int64(count)
}

// deltaChunk is the result scratch of one parallel chunk of a delta
// sweep: the run-grouped evidence of DeltaChunkPairs consecutive base
// slots. Each concurrent chunk owns exactly one deltaChunk, so workers
// never share mutable result state; buffers are reused across sweeps.
// Workers fill the run lists (keys/radds on the ≤ 64-column word path,
// rsets/rcounts/radds on the wide path) and the coordinator merges the
// chunks in position order into the witness delta — the same sequence of
// addWord/addSet calls the sequential sweep makes, because that sweep
// already folds runs per DeltaChunkPairs chunk.
type deltaChunk struct {
	from, to int // positions [from, to) of baseAlive covered by this chunk
	words    []uint64
	sets     []fdset.AttrSet
	counts   []int32
	keys     []uint64        // word path: run-head agree masks
	rsets    []fdset.AttrSet // wide path: run-head agree sets
	rcounts  []int32         // wide path: shared-attribute count per run head
	radds    []int32         // pairs per run
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
	word    bool
	staging *preprocess.Staging

	baseAlive []int32    // ascending alive base slots still untouched by this batch
	extras    []extraRow // staged appends and rewritten base rows, in creation order

	baseNextID  int64
	appendCount int
	appendIdx   []int              // staged-append index → extras index
	replacedIdx map[int64]int      // base id rewritten this batch → extras index
	deletedBase map[int64]struct{} // base ids deleted this batch

	deleteIDs []int64 // ids to tombstone at commit, in operation order

	d     deltaScan
	pairs int

	// scan scratch (sequential path and the extras tail)
	words  []uint64
	sets   []fdset.AttrSet
	counts []int32

	// pool, when non-nil, parallelizes large base-slot sweeps: chunks are
	// dispatched to the persistent workers and merged in position order,
	// so the witness delta's first-touch key order — what mergeWitness
	// depends on for deterministic realized/retired lists — is identical
	// to the sequential sweep's.
	pool   *pool.Pool
	chunks []deltaChunk // per-chunk result scratch, reused across sweeps

	appends, deletes, updates int
}

func newBatchState(inc *Incremental, pl *pool.Pool) *batchState {
	b := &batchState{
		inc:         inc,
		enc:         inc.encoder,
		word:        inc.word,
		staging:     inc.encoder.NewStaging(),
		baseAlive:   inc.encoder.AliveSlots(nil),
		baseNextID:  inc.encoder.NextID(),
		replacedIdx: make(map[int64]int),
		deletedBase: make(map[int64]struct{}),
		pool:        pl,
	}
	if b.word {
		b.d.dw = make(map[uint64]int64)
		b.words = make([]uint64, inc.opt.DeltaChunkPairs)
	} else {
		b.d.ds = make(map[fdset.AttrSet]int64)
		b.sets = make([]fdset.AttrSet, inc.opt.DeltaChunkPairs)
		b.counts = make([]int32, inc.opt.DeltaChunkPairs)
	}
	return b
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
// virtual state, so a row is never paired with itself. Base slots go
// through the batched encoder kernel in chunks of DeltaChunkPairs with a
// cancellation check per chunk; identical consecutive agree masks fold
// as one map operation (the same run-skip the sampler uses, and equally
// common on low-cardinality data). Sweeps spanning more than one chunk
// are dispatched to the worker pool when one is attached; the witness
// delta is identical either way.
func (b *batchState) scan(ctx context.Context, row []uint64, sign int64) error {
	chunk := b.inc.opt.DeltaChunkPairs
	if b.pool != nil && len(b.baseAlive) > chunk {
		if err := b.scanBaseParallel(ctx, row, sign, chunk); err != nil {
			return err
		}
	} else if err := b.scanBase(ctx, row, sign, chunk); err != nil {
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
		if b.word {
			b.d.addWord(b.enc.AgreeRowsWord(row, ex.packed), 1, sign)
		} else {
			s, n := b.enc.AgreeRowsSet(row, ex.packed)
			b.d.addSet(s, n, 1, sign)
		}
		b.pairs++
	}
	return nil
}

// scanBase is the sequential base-slot sweep: one chunk at a time through
// the batched kernel, runs folded straight into the witness delta.
func (b *batchState) scanBase(ctx context.Context, row []uint64, sign int64, chunk int) error {
	for start := 0; start < len(b.baseAlive); start += chunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + chunk
		if end > len(b.baseAlive) {
			end = len(b.baseAlive)
		}
		slots := b.baseAlive[start:end]
		if b.word {
			words := b.words[:len(slots)]
			b.enc.AgreeSlotsWords(row, slots, words)
			for i := 0; i < len(words); {
				w := words[i]
				j := i + 1
				for j < len(words) && words[j] == w {
					j++
				}
				b.d.addWord(w, int64(j-i), sign)
				i = j
			}
		} else {
			sets := b.sets[:len(slots)]
			counts := b.counts[:len(slots)]
			b.enc.AgreeSlotsInto(row, slots, sets, counts)
			for i := 0; i < len(sets); {
				s := sets[i]
				j := i + 1
				for j < len(sets) && sets[j] == s {
					j++
				}
				b.d.addSet(s, int(counts[i]), int64(j-i), sign)
				i = j
			}
		}
		b.pairs += len(slots)
	}
	return nil
}

// scanBaseParallel runs the base-slot sweep through the worker pool: the
// slot range is cut into the same DeltaChunkPairs chunks the sequential
// sweep uses, each worker computes its chunk's agree masks (or sets) with
// the batched kernel into the chunk's private buffers and run-groups them
// into (key, pairs) lists, and the coordinator merges the chunks in
// position order into the witness delta. Because the chunk boundaries
// match the sequential sweep's and addWord/addSet accumulate, the merge
// performs the identical call sequence — so first-touch key order (what
// makes mergeWitness deterministic) and all tallies are bit-identical to
// scanBase. Workers observe cancellation at chunk start and skip the
// kernel; the coordinator then returns before merging anything, leaving
// the delta exactly as cancellation mid-scanBase would.
func (b *batchState) scanBaseParallel(ctx context.Context, row []uint64, sign int64, chunk int) error {
	n := len(b.baseAlive)
	numChunks := (n + chunk - 1) / chunk
	for len(b.chunks) < numChunks {
		b.chunks = append(b.chunks, deltaChunk{})
	}
	for k := 0; k < numChunks; k++ {
		from := k * chunk
		to := from + chunk
		if to > n {
			to = n
		}
		b.chunks[k].from, b.chunks[k].to = from, to
	}
	if b.word {
		b.pool.Do(numChunks, func(k int) {
			ch := &b.chunks[k]
			ch.keys, ch.radds = ch.keys[:0], ch.radds[:0]
			if ctx.Err() != nil {
				return // a cancelled sweep is discarded wholesale
			}
			m := ch.to - ch.from
			if cap(ch.words) < m {
				ch.words = make([]uint64, m)
			}
			words := ch.words[:m]
			b.enc.AgreeSlotsWords(row, b.baseAlive[ch.from:ch.to], words)
			for i := 0; i < m; {
				w := words[i]
				j := i + 1
				for j < m && words[j] == w {
					j++
				}
				ch.keys = append(ch.keys, w)
				ch.radds = append(ch.radds, int32(j-i))
				i = j
			}
		})
	} else {
		b.pool.Do(numChunks, func(k int) {
			ch := &b.chunks[k]
			ch.rsets, ch.rcounts, ch.radds = ch.rsets[:0], ch.rcounts[:0], ch.radds[:0]
			if ctx.Err() != nil {
				return
			}
			m := ch.to - ch.from
			if cap(ch.sets) < m {
				ch.sets = make([]fdset.AttrSet, m)
				ch.counts = make([]int32, m)
			}
			sets, counts := ch.sets[:m], ch.counts[:m]
			b.enc.AgreeSlotsInto(row, b.baseAlive[ch.from:ch.to], sets, counts)
			for i := 0; i < m; {
				s := sets[i]
				j := i + 1
				for j < m && sets[j] == s {
					j++
				}
				ch.rsets = append(ch.rsets, s)
				ch.rcounts = append(ch.rcounts, counts[i])
				ch.radds = append(ch.radds, int32(j-i))
				i = j
			}
		})
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for k := 0; k < numChunks; k++ {
		ch := &b.chunks[k]
		if b.word {
			for x, w := range ch.keys {
				b.d.addWord(w, int64(ch.radds[x]), sign)
			}
		} else {
			for x, s := range ch.rsets {
				b.d.addSet(s, int(ch.rcounts[x]), int64(ch.radds[x]), sign)
			}
		}
		b.pairs += ch.to - ch.from
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
// bounded compaction may densify the spine. It returns the ids whose
// content changed (surviving updates), for partition-cache patching.
func (b *batchState) commitEncoder() (changed []int64) {
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
			changed = append(changed, ex.id)
		}
	}
	for _, id := range b.deleteIDs {
		b.enc.Delete(id)
	}
	b.enc.MaybeCompact()
	return changed
}

// sortSetsDesc orders agree sets by descending cardinality, ties broken
// by ascending element lists — the admission order that lets the
// negative cover reject dominated sets without ever superseding a stored
// one.
func sortSetsDesc(sets []fdset.AttrSet) {
	slices.SortFunc(sets, func(a, b fdset.AttrSet) int {
		if c := cmp.Compare(b.Count(), a.Count()); c != 0 {
			return c
		}
		return fdset.Compare(fdset.FD{LHS: a}, fdset.FD{LHS: b})
	})
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
