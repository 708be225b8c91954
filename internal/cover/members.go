package cover

import (
	"math/bits"
	"slices"
)

// members is the exact-membership table of a tree's stored sets, mw
// words apiece: an open-addressed hash set with linear probing over a
// power-of-two slot count. An all-zero slot is empty, so ∅ — the one set
// whose words are all zero — is a flag beside the slots. A deletion
// shifts the rest of its probe run back instead of leaving a tombstone,
// so every probe ends at the first empty slot.
//
// The table grows at a load of 3/8, not 3/4: a candidate that inversion
// does not block misses on every one of its blocker probes, and a miss
// walks its whole run to an empty slot. At 3/4, BenchmarkInvertDense ran
// 230–248 ms against 194–227 ms at 3/8.
type members struct {
	mw    int
	slots []uint64 // mw words per slot
	mask  uint64   // slot count − 1
	shift uint     // 64 − log2(slot count): a hash's top bits pick the slot
	n     int      // non-empty sets stored
	empty bool     // ∅ is stored
}

// minSlots is a new table's slot count.
const minSlots = 8

// hashMul is 2^64 divided by the golden ratio: multiplying by it and
// keeping the top bits (Fibonacci hashing) spreads the low-bit-heavy
// attribute masks of narrow relations over the whole table.
const hashMul = 0x9e3779b97f4a7c15

func newMembers(mw int) members {
	m := members{mw: mw}
	m.alloc(minSlots)
	return m
}

// alloc replaces the table's slots with n empty ones, n a power of two.
func (m *members) alloc(n int) {
	m.slots = make([]uint64, n*m.mw)
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
func (m *members) home(s []uint64) uint64 {
	h := s[0] * hashMul
	for _, x := range s[1:] {
		h = (h ^ x) * hashMul
	}
	return h >> m.shift
}

// slot returns the words of slot i.
func (m *members) slot(i uint64) []uint64 {
	o := int(i) * m.mw
	return m.slots[o : o+m.mw : o+m.mw]
}

// find returns the slot holding the non-empty set s, or the empty slot
// that ends its probe run and false.
func (m *members) find(s []uint64) (uint64, bool) {
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

// has reports whether s is stored. Inversion's one-word blocker probes
// bypass it (Tree.blockedByBases).
func (m *members) has(s []uint64) bool {
	if isZero(s) {
		return m.empty
	}
	_, ok := m.find(s)
	return ok
}

// insert stores s, reporting whether it was not already stored.
func (m *members) insert(s []uint64) bool {
	if isZero(s) {
		added := !m.empty
		m.empty = true
		return added
	}
	i, ok := m.find(s)
	if ok {
		return false
	}
	if 8*(m.n+1) > 3*len(m.slots)/m.mw {
		m.grow()
		i, _ = m.find(s)
	}
	copy(m.slot(i), s)
	m.n++
	return true
}

// grow doubles the slot count and re-inserts every stored set.
func (m *members) grow() {
	old := m.slots
	m.alloc(2 * len(old) / m.mw)
	for o := 0; o < len(old); o += m.mw {
		if s := old[o : o+m.mw]; !isZero(s) {
			i, _ := m.find(s)
			copy(m.slot(i), s)
		}
	}
}

// remove forgets s, reporting whether it was stored. The sets after the
// freed slot in its probe run move back into it when their own probes
// start at or before it, so no run is cut short.
func (m *members) remove(s []uint64) bool {
	if isZero(s) {
		removed := m.empty
		m.empty = false
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
			hole = j
		}
	}
	clear(m.slot(hole))
	m.n--
	return true
}

// reset empties the table, keeping its slots.
func (m *members) reset() {
	clear(m.slots)
	m.n, m.empty = 0, false
}
