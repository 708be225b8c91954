package preprocess

import (
	"fmt"
	"sort"
)

// Compaction defaults: the dead-row spine is rebuilt once tombstones
// reach DefaultCompactFraction of the slots and the relation is at least
// DefaultCompactMinRows slots tall. Below the floor the spine is so small
// that compaction overhead beats any locality gain.
const (
	DefaultCompactFraction = 0.25
	DefaultCompactMinRows  = 1024
)

// Encoder label-encodes rows incrementally, retaining per-column
// dictionaries so that appended batches map equal values to equal labels.
// It backs incremental discovery (core.Incremental): appending rows never
// relabels existing ones, so previously observed non-FDs stay valid.
//
// The spine is the packed row layout of Encoded (packedRows), one row
// per slot, kept current in place: appends pack onto its end, and when a
// dictionary outgrows the lane width (2^8 or 2^16 labels) the whole spine
// is repacked once at the next width. Widening changes no label, so no
// agree mask changes either.
//
// Deletes and updates are tombstone-based: a deleted row keeps its slot
// (flagged dead) until bounded compaction rebuilds the spine, so slots
// held by concurrent readers of an older Snapshot stay meaningful and
// delete cost is O(1). Every row carries a stable external id, assigned
// monotonically at append time; ids survive compaction and are the handle
// mutations address rows by.
type Encoder struct {
	attrs  []string
	dicts  []map[string]int32
	rows   packedRows // slot-major; dead slots keep stale labels until compaction
	ids    []int64    // one per slot; strictly ascending external ids
	dead   []bool     // one per slot: tombstones
	nextID int64

	deadRows int
	// counts[c][l] is how many alive rows carry label l in column c;
	// distinct[c] counts labels with a positive count. distinct drives the
	// ∅-seed (a column is constant while distinct ≤ 1) and snapshot label
	// densification, so deletes can flip a column back to constant.
	counts   [][]int32
	distinct []int

	// mutated is set by the first Delete/Replace since the spine was last
	// dense: labels may contain unused dictionary entries and dead slots,
	// so Snapshot must densify instead of sharing. A full compaction
	// restores density and clears it.
	mutated bool
	// sharedSpine marks that some snapshot shares the spine's words;
	// Replace must copy them before its first write so the shared
	// snapshot keeps observing the pre-mutation rows.
	sharedSpine bool

	compactFraction float64
	compactMinRows  int

	// Compactions counts spine rebuilds, for stats and tests.
	Compactions int
}

// NewEncoder prepares an encoder for the given schema.
func NewEncoder(attrs []string) *Encoder {
	dicts := make([]map[string]int32, len(attrs))
	for i := range dicts {
		dicts[i] = make(map[string]int32)
	}
	return &Encoder{
		attrs:           attrs,
		dicts:           dicts,
		rows:            newPackedRows(len(attrs), lanes8),
		counts:          make([][]int32, len(attrs)),
		distinct:        make([]int, len(attrs)),
		compactFraction: DefaultCompactFraction,
		compactMinRows:  DefaultCompactMinRows,
	}
}

// SetCompaction overrides the compaction policy: the spine is rebuilt
// when tombstones exceed fraction of the slots and the spine holds at
// least minRows slots. Non-positive arguments keep the package defaults.
func (e *Encoder) SetCompaction(fraction float64, minRows int) {
	if fraction > 0 {
		e.compactFraction = fraction
	}
	if minRows > 0 {
		e.compactMinRows = minRows
	}
}

// bump adjusts the alive-occurrence count of label l in column c by d
// (±1), maintaining the distinct-label tally.
func (e *Encoder) bump(c int, l int32, d int32) {
	cs := e.counts[c]
	for int(l) >= len(cs) {
		cs = append(cs, 0)
	}
	e.counts[c] = cs
	was := cs[l]
	cs[l] = was + d
	switch {
	case was == 0 && d > 0:
		e.distinct[c]++
	case was+d == 0 && was > 0:
		e.distinct[c]--
	}
}

// Append encodes a batch of rows. Every row must match the schema width.
func (e *Encoder) Append(rows [][]string) error {
	for i, row := range rows {
		if len(row) != len(e.attrs) {
			return fmt.Errorf("preprocess: appended row %d has %d cells, schema has %d attributes", i, len(row), len(e.attrs))
		}
	}
	encoded := make([]int32, len(e.attrs))
	for _, row := range rows {
		for c, v := range row {
			label, ok := e.dicts[c][v]
			if !ok {
				label = int32(len(e.dicts[c]))
				e.dicts[c][v] = label
			}
			encoded[c] = label
		}
		e.AppendEncoded(encoded)
	}
	return nil
}

// AppendEncoded appends one already-encoded row (labels must be valid in
// the current dictionaries — callers encode through Append or a committed
// Staging) and returns its stable external id. The row is packed into the
// spine; row itself is not retained.
func (e *Encoder) AppendEncoded(row []int32) int64 {
	id := e.nextID
	e.nextID++
	e.fit(row)
	e.rows.appendRow(row)
	e.ids = append(e.ids, id)
	e.dead = append(e.dead, false)
	for c, l := range row {
		e.bump(c, l, 1)
	}
	return id
}

// fit widens the spine until every label of row fits a lane, reporting
// whether it widened. The widened spine is a fresh array, so snapshots
// sharing the old one are untouched.
func (e *Encoder) fit(row []int32) bool {
	top := int32(0)
	for _, l := range row {
		top = max(top, l)
	}
	if !e.rows.widen(len(e.ids), int(top)+1) {
		return false
	}
	e.sharedSpine = false
	return true
}

// PackRow packs an encoded row into dst (grown as needed) at the spine's
// lane width, first widening the spine when a label does not fit —
// staged labels of a batch can exceed every committed dictionary. It
// reports whether the spine widened, so a caller holding rows packed
// earlier can repack them. Widening changes no label, so a batch that is
// later dropped leaves the encoder's contents as they were.
func (e *Encoder) PackRow(row []int32, dst []uint64) (packed []uint64, widened bool) {
	widened = e.fit(row)
	if cap(dst) < e.rows.stride {
		dst = make([]uint64, e.rows.stride)
	}
	dst = dst[:e.rows.stride]
	e.rows.f.pack(dst, row)
	return dst, widened
}

// LaneWidth returns the bits per label lane of the spine: 8, 16 or 32.
func (e *Encoder) LaneWidth() int { return int(e.rows.f.width) }

// Lookup resolves an external row id to its current slot. ok is false for
// ids never assigned or already deleted.
func (e *Encoder) Lookup(id int64) (slot int, ok bool) {
	i := sort.Search(len(e.ids), func(k int) bool { return e.ids[k] >= id })
	if i == len(e.ids) || e.ids[i] != id || e.dead[i] {
		return 0, false
	}
	return i, true
}

// Delete tombstones the row with the given id. It reports false when the
// id is unknown or already dead. The slot is reclaimed by MaybeCompact.
func (e *Encoder) Delete(id int64) bool {
	slot, ok := e.Lookup(id)
	if !ok {
		return false
	}
	e.unbump(slot)
	e.dead[slot] = true
	e.deadRows++
	e.mutated = true
	return true
}

// unbump removes one occurrence of every label of slot from the counts.
func (e *Encoder) unbump(slot int) {
	for c := range e.attrs {
		e.bump(c, e.rows.label(slot, c), -1)
	}
}

// Replace swaps the content of the row with the given id for the encoded
// row (labels must be valid in the current dictionaries). The row keeps
// its id and slot. It reports false when the id is unknown or dead.
func (e *Encoder) Replace(id int64, row []int32) bool {
	slot, ok := e.Lookup(id)
	if !ok {
		return false
	}
	e.unbump(slot)
	e.fit(row)
	if e.sharedSpine {
		// A snapshot shares the spine's words; writing the shared prefix
		// would mutate the snapshot's view of this row.
		e.rows.words = append([]uint64(nil), e.rows.words...)
		e.sharedSpine = false
	}
	e.rows.f.pack(e.rows.row(slot), row)
	for c, l := range row {
		e.bump(c, l, 1)
	}
	e.mutated = true
	return true
}

// NumRows returns the number of alive rows.
func (e *Encoder) NumRows() int { return len(e.ids) - e.deadRows }

// NextID returns the id the next appended row will receive.
func (e *Encoder) NextID() int64 { return e.nextID }

// Row returns the packed words of a slot, at the spine's current lane
// width: valid until the spine next widens or compacts. Callers must not
// mutate the returned slice.
func (e *Encoder) Row(slot int) []uint64 { return e.rows.row(slot) }

// AliveDistinct returns the number of distinct values among alive rows in
// column c — the cardinality the ∅-seed decision must use once rows can
// die (a dictionary only ever grows, so its size overcounts).
func (e *Encoder) AliveDistinct(c int) int { return e.distinct[c] }

// AliveSlots appends every live slot index to buf (reusing its capacity)
// and returns it, in ascending slot order.
func (e *Encoder) AliveSlots(buf []int32) []int32 {
	buf = buf[:0]
	for slot := range e.ids {
		if !e.dead[slot] {
			buf = append(buf, int32(slot))
		}
	}
	return buf
}

// AgreeSlotsWords is the delta kernel of incremental maintenance: for
// every slot in slots it writes the agree set of (row, slot) as
// mw = MaskWords mask words into masks[k·mw:]. row is one staged or
// deleted row, packed at the spine's width (PackRow or Row), compared
// against the alive slots. masks must have length ≥ len(slots)·mw. It
// performs no allocation.
//
//fdlint:hotpath
func (e *Encoder) AgreeSlotsWords(row []uint64, slots []int32, masks []uint64) {
	e.rows.agreeRow(row, slots, masks)
}

// AgreeRowsWords writes the agree set of two rows, both packed at the
// spine's width, as MaskWords mask words into masks.
//
//fdlint:hotpath
func (e *Encoder) AgreeRowsWords(a, b, masks []uint64) { e.rows.agreeMasks(masks, a, b) }

// MaybeCompact rebuilds the spine when the tombstone share crosses the
// configured threshold, reporting whether a compaction ran. Compaction
// drops dead slots, densifies labels (dictionary entries that no alive
// row carries are dropped and surviving labels renumbered by first
// occurrence), and rebuilds the occurrence counts — after it the encoder
// is exactly as if only the alive rows had ever been appended, except
// that ids and nextID are preserved. Old snapshots are untouched: the
// rebuild allocates fresh spines instead of editing shared ones.
func (e *Encoder) MaybeCompact() bool {
	if e.deadRows == 0 || len(e.ids) < e.compactMinRows {
		return false
	}
	if float64(e.deadRows) < e.compactFraction*float64(len(e.ids)) {
		return false
	}
	e.compact()
	return true
}

// Compact forces a spine rebuild regardless of the tombstone share.
func (e *Encoder) Compact() {
	if e.deadRows == 0 && !e.mutated {
		return
	}
	e.compact()
}

// dictEntry is compact's scratch pair for draining a column dictionary
// into label order before the renumbering pass.
type dictEntry struct {
	value string
	label int32
}

func (e *Encoder) compact() {
	rows, ids, next := e.densify()
	for c := range e.dicts {
		ents := make([]dictEntry, 0, len(e.dicts[c]))
		for v, l := range e.dicts[c] {
			ents = append(ents, dictEntry{value: v, label: l})
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i].label < ents[j].label })
		nd := make(map[string]int32, next[c].n)
		counts := make([]int32, next[c].n)
		for _, en := range ents {
			if m := next[c].remap[en.label]; m >= 0 {
				nd[en.value] = m
				counts[m] = e.counts[c][en.label]
			}
		}
		e.dicts[c] = nd
		e.counts[c] = counts
		e.distinct[c] = next[c].n
	}
	e.rows, e.ids = rows, ids
	e.dead = make([]bool, len(ids))
	e.deadRows = 0
	e.mutated = false
	e.sharedSpine = false
	e.Compactions++
}

// columnRemap is densify's renumbering of one column: remap[old] is the
// dense label of old (-1 when no alive row carries it), and n counts the
// dense labels.
type columnRemap struct {
	remap []int32
	n     int
}

// densify copies the alive slots into a fresh spine with every column's
// labels renumbered by first occurrence, packed at the width the dense
// label counts need, and returns it with the alive ids and the per-column
// renumbering. The encoder itself is left as it was.
func (e *Encoder) densify() (packedRows, []int64, []columnRemap) {
	ncols := len(e.attrs)
	n := len(e.ids) - e.deadRows
	next := make([]columnRemap, ncols)
	for c := range next {
		next[c].remap = make([]int32, len(e.dicts[c]))
		for i := range next[c].remap {
			next[c].remap[i] = -1
		}
	}
	rows := newPackedRows(ncols, lanes8)
	rows.words = make([]uint64, n*rows.stride)
	ids := make([]int64, 0, n)
	for slot := range e.ids {
		if e.dead[slot] {
			continue
		}
		for c := range next {
			l := e.rows.label(slot, c)
			m := next[c].remap[l]
			if m < 0 {
				m = int32(next[c].n)
				next[c].remap[l] = m
				next[c].n++
				rows.widen(n, next[c].n)
			}
			rows.put(len(ids), c, m)
		}
		ids = append(ids, e.ids[slot])
	}
	return rows, ids, next
}

// Snapshot materializes the current state as an Encoded relation,
// rebuilding the stripped partitions. While the encoder has never seen a
// delete or update, the snapshot shares the spine's words (rows already
// encoded are never mutated and appends only write beyond the
// snapshot's length, so the snapshot stays immutable). Once mutated, the
// snapshot is an independent densified copy over the alive rows — labels
// renumbered by first occurrence and repacked at the width they need, so
// NumLabels is again the exact distinct count every consumer (∅-seed,
// RefineWith slot sizing, pdep baselines) assumes.
func (e *Encoder) Snapshot(name string) *Encoded {
	ncols := len(e.attrs)
	enc := &Encoded{
		Name:      name,
		Attrs:     e.attrs,
		NumLabels: make([]int, ncols),
	}
	if !e.mutated {
		enc.NumRows = len(e.ids)
		enc.rows = e.rows
		enc.RowIDs = e.ids
		for c := range e.attrs {
			enc.NumLabels[c] = len(e.dicts[c])
		}
		e.sharedSpine = true
	} else {
		var next []columnRemap
		enc.rows, enc.RowIDs, next = e.densify()
		enc.NumRows = len(enc.RowIDs)
		for c := range next {
			enc.NumLabels[c] = next[c].n
		}
	}
	enc.buildPartitions()
	return enc
}

// Staging is a per-batch dictionary overlay: rows of a mutation batch are
// encoded against the committed dictionaries plus staged extensions, so a
// cancelled batch leaves the dictionaries untouched (a permanently grown
// dictionary would corrupt NumLabels on later snapshots). Commit merges
// the staged values in staging order, making the tentative labels real.
type Staging struct {
	e    *Encoder
	over []map[string]int32 // staged value → tentative label, per column
	vals [][]string         // staged values per column, in label order
}

// NewStaging opens a dictionary overlay for one mutation batch. Only one
// staging may be open at a time (the encoder's dictionaries must not grow
// underneath it); core.Incremental serializes batches, which guarantees
// that.
func (e *Encoder) NewStaging() *Staging {
	return &Staging{
		e:    e,
		over: make([]map[string]int32, len(e.attrs)),
		vals: make([][]string, len(e.attrs)),
	}
}

// EncodeRow encodes one row against the committed dictionaries plus the
// overlay, staging labels for unseen values. The row must match the
// schema width.
func (st *Staging) EncodeRow(row []string) ([]int32, error) {
	e := st.e
	if len(row) != len(e.attrs) {
		return nil, fmt.Errorf("preprocess: row has %d cells, schema has %d attributes", len(row), len(e.attrs))
	}
	enc := make([]int32, len(e.attrs))
	for c, v := range row {
		if l, ok := e.dicts[c][v]; ok {
			enc[c] = l
			continue
		}
		if st.over[c] == nil {
			st.over[c] = make(map[string]int32)
		}
		if l, ok := st.over[c][v]; ok {
			enc[c] = l
			continue
		}
		l := int32(len(e.dicts[c]) + len(st.vals[c]))
		st.over[c][v] = l
		st.vals[c] = append(st.vals[c], v)
		enc[c] = l
	}
	return enc, nil
}

// Commit merges the staged values into the encoder's dictionaries, in
// staging order so every tentative label becomes its real value. The
// staging must not be used afterwards.
func (st *Staging) Commit() {
	for c, vs := range st.vals {
		for _, v := range vs {
			st.e.dicts[c][v] = int32(len(st.e.dicts[c]))
		}
	}
	st.over, st.vals = nil, nil
}
