// Package fdset provides the core value types of FD discovery: attribute
// sets represented as fixed-width bitsets, functional dependencies, and
// Set, the canonical FD collection, with minimality utilities.
//
// AttrSet is a comparable value type, usable directly as a map key. A Set
// is always in canonical order (Compare): one run per RHS of LHS bit
// masks, at the width its widest LHS needs, so reads walk it with no
// sort and no hashing. Add and Remove cost one run's length; build a
// large set at once with NewSet.
package fdset

import (
	"fmt"
	"math/bits"
	"strings"
)

// attrWords is the number of 64-bit words in an AttrSet.
const attrWords = 6

// MaxAttrs is the largest attribute index an AttrSet can hold, exclusive.
// 384 covers every dataset in the evaluation (uniprot has 223 columns and
// the DMS fleet tops out at 312).
const MaxAttrs = attrWords * 64

// AttrSet is a set of attribute indices in [0, MaxAttrs). The zero value is
// the empty set. AttrSet is comparable: two sets are equal iff they contain
// the same attributes, so it can key maps and be compared with ==.
type AttrSet struct {
	w [attrWords]uint64
}

// EmptySet returns the empty attribute set.
func EmptySet() AttrSet { return AttrSet{} }

// FromWord builds a set over attributes [0, 64) directly from a bitmask:
// bit i set means attribute i is present. It is the single-word fast-path
// constructor of the batched agree-set kernels (preprocess), which for
// relations of ≤ 64 columns accumulate an agree set as one machine word
// and materialize the AttrSet only when the word is retained. FromWord
// performs no allocation and compiles to a handful of moves.
func FromWord(w uint64) AttrSet {
	var s AttrSet
	s.w[0] = w
	return s
}

// FromWords builds a set from up to NumWords words, word k holding
// attributes [64k, 64k+64): the mw-word masks the agree kernels write and
// the cover trees store.
func FromWords(w []uint64) AttrSet {
	var s AttrSet
	copy(s.w[:], w)
	return s
}

// Word0 returns the first 64-bit word of the set: the whole set whenever
// every attribute index is below 64 (the single-word fast path).
func (s AttrSet) Word0() uint64 { return s.w[0] }

// NewAttrSet builds a set from the given attribute indices.
// It panics if an index is out of range, as that is a programming error.
func NewAttrSet(attrs ...int) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s.Add(a)
	}
	return s
}

// FullSet returns the set {0, 1, ..., n-1}.
func FullSet(n int) AttrSet {
	if n < 0 || n > MaxAttrs {
		panic(fmt.Sprintf("fdset: FullSet size %d out of range", n))
	}
	var s AttrSet
	for i := 0; i < n/64; i++ {
		s.w[i] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		s.w[n/64] = (uint64(1) << r) - 1
	}
	return s
}

func checkAttr(a int) {
	if a < 0 || a >= MaxAttrs {
		panic(fmt.Sprintf("fdset: attribute index %d out of range [0,%d)", a, MaxAttrs))
	}
}

// Add inserts attribute a into the set.
func (s *AttrSet) Add(a int) {
	checkAttr(a)
	s.w[a/64] |= uint64(1) << (a % 64)
}

// Remove deletes attribute a from the set.
func (s *AttrSet) Remove(a int) {
	checkAttr(a)
	s.w[a/64] &^= uint64(1) << (a % 64)
}

// Has reports whether attribute a is in the set.
func (s AttrSet) Has(a int) bool {
	if a < 0 || a >= MaxAttrs {
		return false
	}
	return s.w[a/64]&(uint64(1)<<(a%64)) != 0
}

// IsEmpty reports whether the set has no attributes.
func (s AttrSet) IsEmpty() bool {
	for _, w := range s.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of attributes in the set.
func (s AttrSet) Count() int {
	n := 0
	for _, w := range s.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// With returns a copy of s with attribute a added.
func (s AttrSet) With(a int) AttrSet {
	s.Add(a)
	return s
}

// Without returns a copy of s with attribute a removed.
func (s AttrSet) Without(a int) AttrSet {
	s.Remove(a)
	return s
}

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet {
	var r AttrSet
	for i := range s.w {
		r.w[i] = s.w[i] | t.w[i]
	}
	return r
}

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet {
	var r AttrSet
	for i := range s.w {
		r.w[i] = s.w[i] & t.w[i]
	}
	return r
}

// Diff returns s \ t.
func (s AttrSet) Diff(t AttrSet) AttrSet {
	var r AttrSet
	for i := range s.w {
		r.w[i] = s.w[i] &^ t.w[i]
	}
	return r
}

// IsSubsetOf reports whether every attribute of s is in t (s ⊆ t).
func (s AttrSet) IsSubsetOf(t AttrSet) bool {
	for i := range s.w {
		if s.w[i]&^t.w[i] != 0 {
			return false
		}
	}
	return true
}

// IsSupersetOf reports whether every attribute of t is in s (s ⊇ t).
func (s AttrSet) IsSupersetOf(t AttrSet) bool { return t.IsSubsetOf(s) }

// IsProperSubsetOf reports s ⊂ t.
func (s AttrSet) IsProperSubsetOf(t AttrSet) bool { return s != t && s.IsSubsetOf(t) }

// Intersects reports whether s ∩ t is non-empty.
func (s AttrSet) Intersects(t AttrSet) bool {
	for i := range s.w {
		if s.w[i]&t.w[i] != 0 {
			return true
		}
	}
	return false
}

// First returns the smallest attribute in the set, or -1 if empty.
func (s AttrSet) First() int {
	for i, w := range s.w {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Last returns the largest attribute in the set, or -1 if empty: the
// counterpart of First, read from the highest non-zero word.
func (s AttrSet) Last() int {
	for i := attrWords - 1; i >= 0; i-- {
		if w := s.w[i]; w != 0 {
			return i*64 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// NextAfter returns the smallest attribute strictly greater than a,
// or -1 if there is none. Pass a = -1 to obtain the first attribute.
func (s AttrSet) NextAfter(a int) int {
	start := a + 1
	if start < 0 {
		start = 0
	}
	if start >= MaxAttrs {
		return -1
	}
	wi := start / 64
	w := s.w[wi] >> (start % 64)
	if w != 0 {
		return start + bits.TrailingZeros64(w)
	}
	for i := wi + 1; i < attrWords; i++ {
		if s.w[i] != 0 {
			return i*64 + bits.TrailingZeros64(s.w[i])
		}
	}
	return -1
}

// Attrs returns the attributes in ascending order.
func (s AttrSet) Attrs() []int {
	out := make([]int, 0, s.Count())
	for a := s.First(); a >= 0; a = s.NextAfter(a) {
		out = append(out, a)
	}
	return out
}

// ForEach calls fn for every attribute in ascending order. It stops early
// if fn returns false.
func (s AttrSet) ForEach(fn func(a int) bool) {
	for a := s.First(); a >= 0; a = s.NextAfter(a) {
		if !fn(a) {
			return
		}
	}
}

// NumWords is the number of 64-bit words backing an AttrSet; word i holds
// attributes [64i, 64i+64).
const NumWords = attrWords

// Word returns the i-th 64-bit word of the set. It panics when i is out of
// range, as that is a programming error.
func (s AttrSet) Word(i int) uint64 { return s.w[i] }

// SetWord overwrites the i-th 64-bit word of the set. It exists for code
// that assembles agree sets word by word without per-bit Add calls, such
// as the reference form of the preprocess agree kernels.
func (s *AttrSet) SetWord(i int, w uint64) { s.w[i] = w }

// Hash returns a 64-bit mix of the set contents, suitable for sharding.
func (s AttrSet) Hash() uint64 {
	h := uint64(1469598103934665603)
	for _, w := range s.w {
		h ^= w
		h *= 1099511628211
	}
	return h
}

// String renders the set as attribute indices, e.g. "{0,3,7}".
func (s AttrSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(a int) bool {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, "%d", a)
		return true
	})
	b.WriteByte('}')
	return b.String()
}

// Names renders the set using the provided attribute names, e.g. "[Name Age]".
func (s AttrSet) Names(names []string) string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	s.ForEach(func(a int) bool {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		if a < len(names) {
			b.WriteString(names[a])
		} else {
			fmt.Fprintf(&b, "#%d", a)
		}
		return true
	})
	b.WriteByte(']')
	return b.String()
}
