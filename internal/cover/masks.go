package cover

import (
	"context"
	"math/bits"
	"slices"

	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Masks is the one hash table of attribute sets held as mw words apiece,
// word k holding attributes [64k, 64k+64): the agree masks the
// preprocess kernels write and the sets a cover tree stores. Each tree's
// exact-membership table is one, and so are the agree-set dedup set of
// every pair-comparing discoverer (AppendNew), core's witness tallies and
// a mutation batch's witness delta.
//
// It is an open-addressed hash set with linear probing over a
// power-of-two slot count. An all-zero slot is empty, so ∅ — the one set
// whose words are all zero — is a flag beside the slots. A deletion
// shifts the rest of its probe run back instead of leaving a tombstone,
// so every probe ends at the first empty slot. A counted table keeps an
// int64 beside each key (Add, Get, Put, AddRuns); an ordered one also
// lists its keys in the order they joined it (EachOrdered), so a caller
// can replay them deterministically.
//
// The table grows at a load of 3/8, not 3/4: a candidate that inversion
// does not block misses on every one of its blocker probes, and a miss
// walks its whole run to an empty slot. At 3/4, BenchmarkInvertDense ran
// 230–248 ms against 194–227 ms at 3/8.
type Masks struct {
	mw     int
	slots  []uint64 // mw words per slot
	counts []int64  // one per slot in a counted table, else nil
	mask   uint64   // slot count − 1
	shift  uint     // 64 − log2(slot count): a hash's top bits pick the slot
	n      int      // non-empty keys stored
	empty  bool     // ∅ is stored
	// emptyCount is ∅'s count, 0 while ∅ is not stored.
	emptyCount int64
	ordered    bool
	order      []uint64 // mw words per key: every key as it joined
}

// minSlots is a new table's slot count.
const minSlots = 8

// hashMul is 2^64 divided by the golden ratio: multiplying by it and
// keeping the top bits (Fibonacci hashing) spreads the low-bit-heavy
// attribute masks of narrow relations over the whole table.
const hashMul = 0x9e3779b97f4a7c15

// NewMasks returns an empty table of mw-word keys, counted when counted
// is set and keeping its keys' joining order when ordered is set.
func NewMasks(mw int, counted, ordered bool) *Masks {
	m := &Masks{mw: mw, ordered: ordered}
	m.alloc(minSlots, counted)
	return m
}

// alloc replaces the table's slots, and its counts when counted, with n
// empty ones, n a power of two.
func (m *Masks) alloc(n int, counted bool) {
	m.slots = make([]uint64, n*m.mw)
	if counted {
		m.counts = make([]int64, n)
	}
	m.mask = uint64(n - 1)
	m.shift = uint(64 - bits.TrailingZeros(uint(n)))
}

// isZero reports whether every word of s is zero.
func isZero(s []uint64) bool {
	for _, x := range s {
		if x != 0 {
			return false
		}
	}
	return true
}

// home returns the slot a probe for s starts at.
func (m *Masks) home(s []uint64) uint64 {
	h := s[0] * hashMul
	for _, x := range s[1:] {
		h = (h ^ x) * hashMul
	}
	return h >> m.shift
}

// slot returns the words of slot i.
func (m *Masks) slot(i uint64) []uint64 {
	o := int(i) * m.mw
	return m.slots[o : o+m.mw : o+m.mw]
}

// find returns the slot holding the non-empty key s, or the empty slot
// that ends its probe run and false.
func (m *Masks) find(s []uint64) (uint64, bool) {
	i := m.home(s)
	for {
		w := m.slot(i)
		if slices.Equal(w, s) {
			return i, true
		}
		if isZero(w) {
			return i, false
		}
		i = (i + 1) & m.mask
	}
}

// Len returns the number of keys stored, ∅ included.
func (m *Masks) Len() int {
	if m.empty {
		return m.n + 1
	}
	return m.n
}

// has reports whether s is stored. Inversion's one-word blocker probes
// bypass it (Tree.blockedByBases).
func (m *Masks) has(s []uint64) bool {
	if isZero(s) {
		return m.empty
	}
	_, ok := m.find(s)
	return ok
}

// join stores the absent key s, at i, the empty slot that ended its probe
// run (∅ ignores i), and returns its count cell, nil in an uncounted
// table. It grows the table first when s would load it past 3/8.
func (m *Masks) join(s []uint64, i uint64) *int64 {
	if m.ordered {
		m.order = append(m.order, s...)
	}
	if isZero(s) {
		m.empty = true
		return &m.emptyCount
	}
	if 8*(m.n+1) > 3*len(m.slots)/m.mw {
		m.grow()
		i, _ = m.find(s)
	}
	copy(m.slot(i), s)
	m.n++
	if m.counts == nil {
		return nil
	}
	return &m.counts[i]
}

// insert stores s, reporting whether it was not already stored.
func (m *Masks) insert(s []uint64) bool {
	var i uint64
	if isZero(s) {
		if m.empty {
			return false
		}
	} else {
		var ok bool
		if i, ok = m.find(s); ok {
			return false
		}
	}
	m.join(s, i)
	return true
}

// cell returns the count cell of s, storing s with count 0 when absent.
func (m *Masks) cell(s []uint64) *int64 {
	if isZero(s) {
		if !m.empty {
			return m.join(s, 0)
		}
		return &m.emptyCount
	}
	i, ok := m.find(s)
	if !ok {
		return m.join(s, i)
	}
	return &m.counts[i]
}

// Add adds n to the count of s, storing s when absent. The table must be
// counted.
func (m *Masks) Add(s []uint64, n int64) { *m.cell(s) += n }

// Get returns the count of s, 0 when s is absent. The table must be
// counted.
func (m *Masks) Get(s []uint64) int64 {
	if isZero(s) {
		return m.emptyCount
	}
	if i, ok := m.find(s); ok {
		return m.counts[i]
	}
	return 0
}

// Put sets the count of s to v, storing s when absent and removing it
// when v is 0. The table must be counted.
func (m *Masks) Put(s []uint64, v int64) {
	if v == 0 {
		m.remove(s)
		return
	}
	*m.cell(s) = v
}

// grow doubles the slot count and re-inserts every stored key with its
// count.
func (m *Masks) grow() {
	old, oldCounts := m.slots, m.counts
	m.alloc(2*len(old)/m.mw, oldCounts != nil)
	for k, o := 0, 0; o < len(old); k, o = k+1, o+m.mw {
		if s := old[o : o+m.mw]; !isZero(s) {
			i, _ := m.find(s)
			copy(m.slot(i), s)
			if oldCounts != nil {
				m.counts[i] = oldCounts[k]
			}
		}
	}
}

// remove forgets s, reporting whether it was stored. The keys after the
// freed slot in its probe run move back into it, with their counts, when
// their own probes start at or before it, so no run is cut short. An
// ordered table keeps s in its order.
func (m *Masks) remove(s []uint64) bool {
	if isZero(s) {
		removed := m.empty
		m.empty, m.emptyCount = false, 0
		return removed
	}
	hole, ok := m.find(s)
	if !ok {
		return false
	}
	for j := (hole + 1) & m.mask; ; j = (j + 1) & m.mask {
		w := m.slot(j)
		if isZero(w) {
			break
		}
		// w may fill the hole iff its probe starts no later than the
		// hole, cyclically: its distance to j is at least the hole's.
		if (j-m.home(w))&m.mask >= (j-hole)&m.mask {
			copy(m.slot(hole), w)
			if m.counts != nil {
				m.counts[hole] = m.counts[j]
			}
			hole = j
		}
	}
	clear(m.slot(hole))
	if m.counts != nil {
		m.counts[hole] = 0
	}
	m.n--
	return true
}

// reset empties the table, keeping its slots.
func (m *Masks) reset() {
	clear(m.slots)
	clear(m.counts)
	m.n, m.empty, m.emptyCount = 0, false, 0
	m.order = m.order[:0]
}

// Each calls fn with every stored key: ∅ first, then the rest in slot
// order. fn must not keep s.
func (m *Masks) Each(fn func(s []uint64)) {
	if m.empty {
		fn(make([]uint64, m.mw))
	}
	for i := uint64(0); i <= m.mask; i++ {
		if s := m.slot(i); !isZero(s) {
			fn(s)
		}
	}
}

// EachOrdered calls fn with an ordered table's keys in the order they
// joined it, each with its count now. A key that left and joined again
// comes once per joining. fn must not keep s.
func (m *Masks) EachOrdered(fn func(s []uint64, v int64)) {
	for o := 0; o < len(m.order); o += m.mw {
		s := m.order[o : o+m.mw : o+m.mw]
		fn(s, m.Get(s))
	}
}

// AppendNew stores every key of masks, a buffer of whole keys, and
// appends to sets, as an attribute set, each one the table did not hold,
// in the order of masks. It is the agree-set dedup of every discoverer
// that compares tuple pairs: the agree kernels write a batch of pair
// masks, and only the new ones leave as evidence.
//
//fdlint:hotpath
func (m *Masks) AppendNew(sets []fdset.AttrSet, masks []uint64) []fdset.AttrSet {
	for i := m.nextNew(masks, 0); i < len(masks); i = m.nextNew(masks, i+m.mw) {
		sets = append(sets, fdset.FromWords(masks[i:i+m.mw]))
	}
	return sets
}

// AllAgreeSets compares every pair of enc's rows, row i against every
// later row in one row-against-many kernel sweep, and returns the
// distinct agree sets in the order the sweep first meets them, ∅
// included, with the number of pairs compared. It checks ctx once per
// row. It is the evidence of the exact all-pairs discoverers (Fdep,
// Dep-Miner, FastFDs): agree sets are a lossless, deduplicated encoding
// of every non-FD a pair witnesses.
func AllAgreeSets(ctx context.Context, enc *preprocess.Encoded) ([]fdset.AttrSet, int, error) {
	mw := preprocess.MaskWords(len(enc.Attrs))
	seen := NewMasks(mw, false, false)
	rows := make([]int32, enc.NumRows)
	for j := range rows {
		rows[j] = int32(j)
	}
	masks := make([]uint64, enc.NumRows*mw)
	var agrees []fdset.AttrSet
	pairs := 0
	for i := range rows {
		if err := ctx.Err(); err != nil {
			return nil, pairs, err
		}
		later := rows[i+1:]
		enc.AgreeRowWords(i, later, masks)
		agrees = seen.AppendNew(agrees, masks[:len(later)*mw])
		pairs += len(later)
	}
	return agrees, pairs, nil
}

// nextNew stores the run heads of masks, a buffer of whole keys, from
// offset i on — a run head being a key that differs from the one before
// it — and returns the offset of the first one the table did not hold,
// or len(masks). Calling it again from the returned offset plus mw
// stores every run head exactly once, in order. Runs of equal
// consecutive keys, the common case in a window sweep over
// low-cardinality data, cost one compare per key and no probe.
//
//fdlint:hotpath
func (m *Masks) nextNew(masks []uint64, i int) int {
	if m.mw == 1 { // one word: the sampler's per-pair loop, kept to plain compares
		for ; i < len(masks); i++ {
			w := masks[i]
			if i > 0 && w == masks[i-1] {
				continue
			}
			if w == 0 {
				if !m.empty {
					m.join(masks[i:i+1], 0)
					return i
				}
				continue
			}
			j := (w * hashMul) >> m.shift
			for m.slots[j] != w && m.slots[j] != 0 {
				j = (j + 1) & m.mask
			}
			if m.slots[j] == 0 {
				m.join(masks[i:i+1], j)
				return i
			}
		}
		return i
	}
	for mw := m.mw; i < len(masks); i += mw {
		s := masks[i : i+mw]
		if (i == 0 || !slices.Equal(s, masks[i-mw:i])) && m.insert(s) {
			return i
		}
	}
	return i
}

// AddRuns adds every run of equal consecutive keys in masks, a buffer of
// whole keys, to the counts: the run's length times scale, and times its
// key's attribute count when perAttr is set. Runs of ∅ are skipped: the
// tallies count (pair × shared attribute), and a pair agreeing nowhere
// shares none. A run is one probe. The table must be counted.
//
//fdlint:hotpath
func (m *Masks) AddRuns(masks []uint64, scale int64, perAttr bool) {
	if m.mw == 1 { // one word: plain compares, one probe per run
		for i := 0; i < len(masks); {
			w, j := masks[i], i+1
			for j < len(masks) && masks[j] == w {
				j++
			}
			if w != 0 {
				n := scale * int64(j-i)
				if perAttr {
					n *= int64(bits.OnesCount64(w))
				}
				k := (w * hashMul) >> m.shift
				for m.slots[k] != w && m.slots[k] != 0 {
					k = (k + 1) & m.mask
				}
				if m.slots[k] == w {
					m.counts[k] += n
				} else {
					*m.join(masks[i:i+1], k) += n
				}
			}
			i = j
		}
		return
	}
	for mw, i := m.mw, 0; i < len(masks); {
		s, j := masks[i:i+mw], i+mw
		for j < len(masks) && slices.Equal(masks[j:j+mw], s) {
			j += mw
		}
		if !isZero(s) {
			n := scale * int64((j-i)/mw)
			if perAttr {
				c := 0
				for _, x := range s {
					c += bits.OnesCount64(x)
				}
				n *= int64(c)
			}
			*m.cell(s) += n
		}
		i = j
	}
}
