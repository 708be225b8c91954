package core

import (
	"math/bits"

	"eulerfd/internal/fdset"
)

// maskTable is the one table core keeps agree masks in. The agree kernels
// (preprocess.AgreeWindowWords, AgreeSlotsWords, AgreeRowsWords) write a
// pair's agree set as mw = preprocess.MaskWords(ncols) mask words, bit i
// of word k set when the pair agrees on attribute 64k+i, and outside them
// this type is the only code that tells widths apart. Its Go map is keyed
// on the mask word itself at mw = 1 — probing an 8-byte key is markedly
// cheaper than hashing a 48-byte AttrSet, which keeps the incremental
// bootstrap's run-by-run witness adds cheap — and on the fdset.AttrSet
// above it. Both keys are bijective with the agree set, so the two record
// exactly the same evidence.
//
// One type serves the three jobs core has for masks:
//
//   - the sampler's dedup set: nextNew and insert, behind an exact front
//     cache;
//   - witness tallies: add, get, put, subsetsOf;
//   - a batch's witness delta: add with ordered set, so eachOrdered
//     replays its keys in first-touch order and the commit merges them
//     deterministically regardless of map iteration.
//
// The direct-mapped maskFilter beside it is the dedup set's front cache.
//
// The loops that run once per compared pair — nextNew and addMasks —
// keep a one-word path of plain compares and direct map operations: the
// general loop over mw-word slices cost sample-tall about a quarter of
// its sampling time.
type maskTable struct {
	mw     int
	narrow map[uint64]int64        // mw = 1
	wide   map[fdset.AttrSet]int64 // mw > 1
	// ordered makes add record each new key in order (mw words apiece).
	// put never removes a key from order.
	ordered bool
	order   []uint64
	// front, when non-nil, is an exact cache of keys insert already
	// stored, checked before the map. Keys only ever join a dedup set, so
	// a hit is always a duplicate and a miss falls through to the map.
	front *maskFilter
}

func newMaskTable(mw int) *maskTable {
	t := &maskTable{mw: mw}
	if mw == 1 {
		t.narrow = make(map[uint64]int64)
	} else {
		t.wide = make(map[fdset.AttrSet]int64)
	}
	return t
}

// maskSet returns the agree set of mask m.
func maskSet(m []uint64) fdset.AttrSet {
	var s fdset.AttrSet
	for k, w := range m {
		s.SetWord(k, w)
	}
	return s
}

// maskCount returns the number of attributes in mask m.
func maskCount(m []uint64) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// len returns the number of keys.
func (t *maskTable) len() int { return len(t.narrow) + len(t.wide) }

// insert adds mask m to a dedup set and reports whether it was new.
//
//fdlint:hotpath
func (t *maskTable) insert(m []uint64) bool {
	if t.front != nil && t.front.seenOrAdd(m) {
		return false
	}
	if t.mw == 1 {
		if _, dup := t.narrow[m[0]]; dup {
			return false
		}
		t.narrow[m[0]] = 0
		return true
	}
	s := maskSet(m)
	if _, dup := t.wide[s]; dup {
		return false
	}
	t.wide[s] = 0
	return true
}

// nextNew inserts the run heads of masks, a buffer of whole masks, from
// offset i on — a run head being a mask that differs from the one before
// it — and returns the offset of the first one the dedup set did not
// hold, or len(masks). Calling it again from the returned offset plus one
// mask inserts every run head exactly once, in order. Runs of identical
// consecutive masks, the common case on low-cardinality data, cost one
// compare per pair and no table operation. The set must have a front
// cache.
//
//fdlint:hotpath
func (t *maskTable) nextNew(masks []uint64, i int) int {
	if t.mw == 1 { // one word: the sampler's hot loop, kept to plain compares
		for ; i < len(masks); i++ {
			w := masks[i]
			if i > 0 && w == masks[i-1] || t.front.seenWord(w) {
				continue
			}
			if _, dup := t.narrow[w]; !dup {
				t.narrow[w] = 0
				return i
			}
		}
		return i
	}
	for mw := t.mw; i < len(masks); i += mw {
		m := masks[i : i+mw]
		if (i == 0 || !sameMask(m, masks[i-mw:i])) && t.insert(m) {
			return i
		}
	}
	return i
}

// add adds n to the count of mask m.
//
//fdlint:hotpath
func (t *maskTable) add(m []uint64, n int64) {
	if t.mw == 1 {
		if t.ordered {
			if _, ok := t.narrow[m[0]]; !ok {
				t.order = append(t.order, m[0])
			}
		}
		t.narrow[m[0]] += n
		return
	}
	s := maskSet(m)
	if t.ordered {
		if _, ok := t.wide[s]; !ok {
			t.order = append(t.order, m...)
		}
	}
	t.wide[s] += n
}

// get returns the count of mask m (0 when absent).
func (t *maskTable) get(m []uint64) int64 {
	if t.mw == 1 {
		return t.narrow[m[0]]
	}
	return t.wide[maskSet(m)]
}

// put sets the count of mask m to v, removing the key when v is 0.
func (t *maskTable) put(m []uint64, v int64) {
	switch {
	case t.mw == 1 && v == 0:
		delete(t.narrow, m[0])
	case t.mw == 1:
		t.narrow[m[0]] = v
	case v == 0:
		delete(t.wide, maskSet(m))
	default:
		t.wide[maskSet(m)] = v
	}
}

// eachOrdered calls fn with an ordered table's keys in first-touch order,
// and their counts.
func (t *maskTable) eachOrdered(fn func(m []uint64, v int64)) {
	for i := 0; i < len(t.order); i += t.mw {
		m := t.order[i : i+t.mw : i+t.mw]
		fn(m, t.get(m))
	}
}

// subsetsOf returns every key that is a subset of some set in list, in
// fdset.SortSetsDesc order, so map iteration order does not reach the
// caller.
func (t *maskTable) subsetsOf(list []fdset.AttrSet) []fdset.AttrSet {
	var out []fdset.AttrSet
	for w := range t.narrow {
		if s := fdset.FromWord(w); subsetOfAny(s, list) {
			out = append(out, s)
		}
	}
	for s := range t.wide {
		if subsetOfAny(s, list) {
			out = append(out, s)
		}
	}
	fdset.SortSetsDesc(out)
	return out
}

// sameMask reports whether masks a and b, of equal length, are equal.
func sameMask(a, b []uint64) bool {
	b = b[:len(a)]
	for k, w := range a {
		if w != b[k] {
			return false
		}
	}
	return true
}

// addMasks adds every run of equal consecutive masks in masks, a buffer
// of whole masks, to the counts: the run's length in pairs times scale,
// and times its mask's attribute count when perAttr is set. Runs of the
// empty mask are dropped: a pair agreeing nowhere lies in no cluster, so
// the bootstrap never counts it, and ∅ non-FDs are settled by column
// cardinality. Window and slot sweeps over low-cardinality data produce
// long runs, and a run is one table operation.
//
//fdlint:hotpath
func (t *maskTable) addMasks(masks []uint64, scale int64, perAttr bool) {
	if t.mw == 1 { // one word: plain compares, one map operation per run
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
				if t.ordered {
					t.add(masks[i:i+1], n)
				} else {
					t.narrow[w] += n
				}
			}
			i = j
		}
		return
	}
	for mw, i := t.mw, 0; i < len(masks); {
		j := i + mw
		for j < len(masks) && sameMask(masks[j:j+mw], masks[i:i+mw]) {
			j += mw
		}
		m := masks[i : i+mw]
		if c := maskCount(m); c > 0 {
			n := scale * int64((j-i)/mw)
			if perAttr {
				n *= int64(c)
			}
			t.add(m, n)
		}
		i = j
	}
}

// frontBits sizes the dedup set's front cache: 2^frontBits direct-mapped
// slots. The cache spans a whole discovery, and the relations the
// benchmark samples yield hundreds to a few thousand distinct masks in
// all.
const frontBits = 12

// maskFilter is a fixed-size direct-mapped set of masks: one mask per
// slot of mw words, the slot picked by the mask's hash. Each slot has its
// own used flag, so no mask value — not even the empty agree set's 0 —
// doubles as "empty". A lookup can miss a mask the filter saw (a later
// mask took the slot) but never reports one it did not see. Nothing ever
// empties a filter: the front cache lives as long as its dedup set.
type maskFilter struct {
	mw    int
	keys  []uint64 // slot i is keys[i·mw : (i+1)·mw]
	used  []bool
	shift uint
}

func newMaskFilter(mw int, bits uint) *maskFilter {
	return &maskFilter{
		mw:    mw,
		keys:  make([]uint64, mw<<bits),
		used:  make([]bool, 1<<bits),
		shift: 64 - bits,
	}
}

// seenOrAdd reports whether mask m is in the filter, and otherwise stores
// it in its slot.
//
//fdlint:hotpath
func (f *maskFilter) seenOrAdd(m []uint64) bool {
	if f.mw == 1 {
		return f.seenWord(m[0])
	}
	i := f.slot(m)
	slot := f.keys[i*f.mw : i*f.mw+f.mw]
	if f.used[i] && sameMask(slot, m) {
		return true
	}
	copy(slot, m)
	f.used[i] = true
	return false
}

// seenWord is seenOrAdd for a one-word filter, small enough to inline.
//
//fdlint:hotpath
func (f *maskFilter) seenWord(w uint64) bool {
	i := (w * 0x9E3779B97F4A7C15) >> f.shift
	if f.used[i] && f.keys[i] == w {
		return true
	}
	f.keys[i], f.used[i] = w, true
	return false
}

// slot returns the index of mask m's slot.
func (f *maskFilter) slot(m []uint64) int {
	h := m[0]
	for _, w := range m[1:] {
		h = bits.RotateLeft64(h, 23) ^ w
	}
	return int((h * 0x9E3779B97F4A7C15) >> f.shift)
}
