package fdset

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
	"testing"
)

// fuzzSet builds an AttrSet from up to 48 bytes of raw word data via the
// SetWord kernel interface, exercising the full 384-bit width.
func fuzzSet(data []byte) AttrSet {
	var s AttrSet
	for i := 0; i < NumWords; i++ {
		if len(data) < 8 {
			break
		}
		s.SetWord(i, binary.LittleEndian.Uint64(data[:8]))
		data = data[8:]
	}
	return s
}

// FuzzAttrSetOps checks the algebraic identities the covers and the
// agree-set kernels rely on, over arbitrary bit patterns.
func FuzzAttrSetOps(f *testing.F) {
	f.Add(make([]byte, 96), byte(0))
	f.Add(append(make([]byte, 95), 0xff), byte(200))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, byte(63))
	f.Fuzz(func(t *testing.T, data []byte, attrByte byte) {
		a := fuzzSet(data)
		var b AttrSet
		if len(data) >= 48 {
			b = fuzzSet(data[48:])
		}
		attr := int(attrByte) % (NumWords * 64)

		// Partition identity: a = (a∖b) ⊎ (a∩b), and the union of the
		// parts with b reassembles a∪b.
		inter := a.Intersect(b)
		diff := a.Diff(b)
		if diff.Intersects(inter) {
			t.Fatalf("a∖b and a∩b overlap: %v %v", diff, inter)
		}
		if got := diff.Union(inter); got != a {
			t.Fatalf("(a∖b)∪(a∩b) = %v, want %v", got, a)
		}
		if got := diff.Union(b); got != a.Union(b) {
			t.Fatalf("(a∖b)∪b = %v, want %v", got, a.Union(b))
		}

		// Inclusion–exclusion on counts.
		if a.Union(b).Count() != a.Count()+b.Count()-inter.Count() {
			t.Fatalf("|a∪b| = %d, want %d+%d-%d", a.Union(b).Count(), a.Count(), b.Count(), inter.Count())
		}

		// Subset laws.
		if !inter.IsSubsetOf(a) || !inter.IsSubsetOf(b) {
			t.Fatal("a∩b must be a subset of both operands")
		}
		if !a.IsSubsetOf(a.Union(b)) || !b.IsSupersetOf(inter) {
			t.Fatal("operands must sit between intersection and union")
		}
		if a.IsSubsetOf(b) != (a.Union(b) == b) {
			t.Fatalf("IsSubsetOf inconsistent with union: a=%v b=%v", a, b)
		}

		// With/Without are pure: the receiver is unchanged and the
		// round trip restores the original.
		before := a
		w := a.With(attr)
		if a != before {
			t.Fatal("With mutated its receiver")
		}
		if !w.Has(attr) || w.Without(attr).Has(attr) {
			t.Fatal("With/Without do not toggle the attribute")
		}
		if a.Has(attr) {
			if w != a {
				t.Fatal("With on a member must be a no-op")
			}
		} else if w.Without(attr) != a {
			t.Fatal("With then Without must restore the set")
		}

		// Enumeration agrees with membership and is strictly ascending.
		attrs := a.Attrs()
		if len(attrs) != a.Count() {
			t.Fatalf("len(Attrs) = %d, Count = %d", len(attrs), a.Count())
		}
		for i, x := range attrs {
			if !a.Has(x) {
				t.Fatalf("Attrs returned non-member %d", x)
			}
			if i > 0 && attrs[i-1] >= x {
				t.Fatalf("Attrs not strictly ascending: %v", attrs)
			}
		}
		if NewAttrSet(attrs...) != a {
			t.Fatal("NewAttrSet(Attrs()) does not round-trip")
		}

		// First/NextAfter walk the same sequence as Attrs.
		i, x := 0, a.First()
		for x >= 0 {
			if i >= len(attrs) || attrs[i] != x {
				t.Fatalf("First/NextAfter walk diverges from Attrs at step %d", i)
			}
			i++
			x = a.NextAfter(x)
		}
		if i != len(attrs) {
			t.Fatalf("First/NextAfter stopped after %d of %d members", i, len(attrs))
		}

		// Last is the walk's final member, -1 for ∅.
		last := -1
		if len(attrs) > 0 {
			last = attrs[len(attrs)-1]
		}
		if a.Last() != last || w.Last() != max(last, attr) {
			t.Fatalf("Last = %d, and %d with %d added; want %d and %d", a.Last(), w.Last(), attr, last, max(last, attr))
		}

		// Word/SetWord round-trip and Hash determinism.
		var rebuilt AttrSet
		for w := 0; w < NumWords; w++ {
			rebuilt.SetWord(w, a.Word(w))
		}
		if rebuilt != a {
			t.Fatal("Word/SetWord does not round-trip")
		}
		if a.Hash() != rebuilt.Hash() {
			t.Fatal("equal sets hash differently")
		}
	})
}

// refCompare is the canonical FD order spelled out on attribute lists:
// RHS, then LHS cardinality, then the ascending attribute list.
func refCompare(a, b FD) int {
	if c := cmp.Compare(a.RHS, b.RHS); c != 0 {
		return c
	}
	la, lb := a.LHS.Attrs(), b.LHS.Attrs()
	if c := cmp.Compare(len(la), len(lb)); c != 0 {
		return c
	}
	return slices.Compare(la, lb)
}

// FuzzCompareFDs checks Compare's word-parallel XOR rule against
// refCompare over sets spread across all six words, and SortFDs against
// a stable sort by the reference. Besides the decoded sets a and b, c
// moves one attribute of a, so equal cardinalities with long shared
// prefixes — the case the XOR rule decides — come up on every input.
func FuzzCompareFDs(f *testing.F) {
	f.Add(make([]byte, 96), byte(0), byte(0), uint16(0), uint16(1))
	f.Add(append(make([]byte, 95), 0xff), byte(1), byte(1), uint16(383), uint16(64))
	f.Add([]byte{0x0f, 0, 0, 0, 0, 0, 0, 0, 0x17}, byte(2), byte(2), uint16(1), uint16(4))
	oneWord := make([]byte, 96) // two sets within word 0
	oneWord[0], oneWord[48] = 0b1011, 0b1101
	f.Add(oneWord, byte(0), byte(0), uint16(0), uint16(2))
	seed := make([]byte, 192)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, byte(3), byte(3), uint16(130), uint16(200))
	f.Fuzz(func(t *testing.T, data []byte, rhsA, rhsB byte, from, to uint16) {
		var fds []FD
		for off := 0; (off < len(data) && len(fds) < 16) || len(fds) < 2; off += 8 * NumWords {
			var lhs AttrSet
			if off < len(data) {
				lhs = fuzzSet(data[off:])
			}
			fds = append(fds, FD{LHS: lhs})
		}
		fds[0].RHS, fds[1].RHS = int(rhsA%4), int(rhsB%4)
		a := fds[0]
		fds = append(fds, FD{LHS: a.LHS.Without(int(from) % MaxAttrs).With(int(to) % MaxAttrs), RHS: a.RHS})

		for _, x := range fds {
			for _, y := range fds {
				got, want := Compare(x, y), refCompare(x, y)
				if got != want {
					t.Fatalf("Compare(%v, %v) = %d, want %d", x, y, got, want)
				}
				if back := Compare(y, x); back != -got {
					t.Fatalf("Compare not antisymmetric: %d and %d for %v, %v", got, back, x, y)
				}
				if (got == 0) != (x == y) {
					t.Fatalf("Compare(%v, %v) = %d, but equal = %v", x, y, got, x == y)
				}
				if Less(x, y) != (want < 0) {
					t.Fatalf("Less(%v, %v) = %v, want %v", x, y, Less(x, y), want < 0)
				}
			}
		}

		got := slices.Clone(fds)
		SortFDs(got)
		want := slices.Clone(fds)
		sort.SliceStable(want, func(i, j int) bool { return refCompare(want[i], want[j]) < 0 })
		if !slices.Equal(got, want) {
			t.Fatalf("SortFDs = %v, want %v", got, want)
		}
	})
}
