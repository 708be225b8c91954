package fdset

import (
	"bytes"
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

// setOpsInput decodes FuzzSetOps's byte stream; an exhausted stream
// reads zeros.
type setOpsInput []byte

func (in *setOpsInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// attr maps one byte to an attribute: below 128 to one of 0–7, so that
// FDs collide often; from 128 up to a multiple of 3 across all six
// words, so a wide LHS can arrive after narrow ones.
func (in *setOpsInput) attr() int {
	b := in.next()
	if b >= 128 {
		return int(b-128) * 3
	}
	return int(b % 8)
}

// fd reads an RHS and an LHS of zero to three attributes.
func (in *setOpsInput) fd() FD {
	f := FD{RHS: in.attr()}
	for k := in.next() % 4; k > 0; k-- {
		f.LHS.Add(in.attr())
	}
	return f
}

// fds reads up to seven FDs, repeats allowed.
func (in *setOpsInput) fds() []FD {
	out := make([]FD, in.next()%8)
	for i := range out {
		out[i] = in.fd()
	}
	return out
}

// minimalRef is Minimize's definition, quadratic: the non-trivial FDs
// that no non-trivial FD of the same RHS generalizes properly.
func minimalRef(m map[FD]struct{}) map[FD]struct{} {
	out := map[FD]struct{}{}
	for f := range m {
		if f.IsTrivial() {
			continue
		}
		minimal := true
		for g := range m {
			if g.RHS == f.RHS && !g.IsTrivial() && g.LHS.IsProperSubsetOf(f.LHS) {
				minimal = false
				break
			}
		}
		if minimal {
			out[f] = struct{}{}
		}
	}
	return out
}

// refSet returns m's FDs in canonical order.
func refSet(m map[FD]struct{}) []FD {
	out := make([]FD, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	SortFDs(out)
	return out
}

// FuzzSetOps drives a Set through interleaved NewSet, Add, Remove,
// Contains, Clone, Equal, Minimize and UnmarshalJSON steps against a
// map[FD]struct{} oracle. After every step the set must hold the
// oracle's FDs, slice and walk them in SortFDs order, and render the
// bytes encoding/json renders for them, compact and indented.
func FuzzSetOps(f *testing.F) {
	f.Add([]byte{})
	// Narrow adds, a wide LHS (attribute 381, byte 255) that widens the
	// runs, removes back to narrow masks in wide runs, a clone, an
	// Equal, and a minimize that drops {0,1} → 1 and the trivial
	// {1} → 1.
	f.Add([]byte{
		0, 1, 1, 0, 0, 1, 2, 0, 2, 0, 2, 1, 3, 0, 3, 0, 1, 1, 1, 255,
		3, 1, 1, 0, 2, 1, 2, 0, 2, 2, 1, 1, 255, 5, 4, 1, 5, 6, 1, 1, 0,
		0, 1, 2, 0, 1, 0, 1, 1, 1, 7, 0, 0, 2, 7, 1, 7,
	})
	// ∅ LHSs with RHS 216 and 66 (bytes 200 and 150), a NewSet with a
	// repeat, an Equal, a clone, an UnmarshalJSON that replaces the
	// contents, then a remove and a lookup.
	f.Add([]byte{
		0, 200, 0, 0, 150, 0, 4, 0, 0, 4, 200, 0, 200, 0, 150, 1, 129, 1, 2, 0, 6,
		6, 200, 1, 5, 5, 1, 0, 8, 0, 0, 3, 140, 2, 1, 2, 250, 0, 140, 2, 2, 1,
		2, 250, 0, 3, 140, 2, 1, 2,
	})
	// Trivial and non-minimal FDs in words 0 and 1 (attributes 66 and
	// 69, bytes 150 and 151) for Minimize, twice.
	f.Add([]byte{
		0, 150, 1, 150, 0, 200, 2, 150, 151, 0, 200, 1, 150, 0, 200, 2, 151, 1,
		0, 0, 1, 1, 0, 0, 2, 1, 2, 0, 0, 2, 0, 1, 7, 0, 0, 6, 200, 1, 150,
		0, 0, 1, 2, 7, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := setOpsInput(data)
		s := &Set{}
		oracle := map[FD]struct{}{}
		for step := 0; len(in) > 0 && step < 128; step++ {
			op := in.next() % 9
			fd := in.fd()
			_, had := oracle[fd]
			switch op {
			case 0, 1:
				if s.Add(fd) == had {
					t.Fatalf("step %d: Add(%v) = %v with the FD present = %v", step, fd, !had, had)
				}
				oracle[fd] = struct{}{}
			case 2:
				if s.Remove(fd) != had {
					t.Fatalf("step %d: Remove(%v) = %v, want %v", step, fd, !had, had)
				}
				delete(oracle, fd)
			case 3:
				if s.Contains(fd) != had {
					t.Fatalf("step %d: Contains(%v) = %v, want %v", step, fd, !had, had)
				}
			case 4:
				fds := in.fds()
				s, oracle = NewSet(fds...), map[FD]struct{}{}
				for _, g := range fds {
					oracle[g] = struct{}{}
				}
			case 5:
				// The clone is independent: growing it leaves s alone.
				c := s.Clone()
				if !c.Equal(s) || !s.Equal(c) {
					t.Fatalf("step %d: Clone is not Equal to its source", step)
				}
				c.Add(fd)
				checkSetOps(t, step, s, oracle)
				s, oracle[fd] = c, struct{}{}
			case 6:
				// An equal set built in map order, at its own width, and
				// one that differs by fd.
				u := NewSet(refSet(oracle)...)
				if !s.Equal(u) || !u.Equal(s) {
					t.Fatalf("step %d: set not Equal to NewSet of its FDs", step)
				}
				if had {
					u.Remove(fd)
				} else {
					u.Add(fd)
				}
				if s.Equal(u) || u.Equal(s) {
					t.Fatalf("step %d: Equal ignores %v", step, fd)
				}
			case 7:
				if s.Minimize() != s {
					t.Fatalf("step %d: Minimize did not return its receiver", step)
				}
				oracle = minimalRef(oracle)
			case 8:
				fds := in.fds()
				data, _ := refSetJSON(t, fds)
				if err := s.UnmarshalJSON(data); err != nil {
					t.Fatalf("step %d: UnmarshalJSON(%s): %v", step, data, err)
				}
				oracle = map[FD]struct{}{}
				for _, g := range fds {
					oracle[g] = struct{}{}
				}
			}
			checkSetOps(t, step, s, oracle)
		}
	})
}

// checkSetOps holds s to the oracle: length, membership, Slice and
// ForEach order, and the compact and indented JSON bytes.
func checkSetOps(t *testing.T, step int, s *Set, oracle map[FD]struct{}) {
	t.Helper()
	want := refSet(oracle)
	if s.Len() != len(want) {
		t.Fatalf("step %d: Len = %d, want %d", step, s.Len(), len(want))
	}
	if got := s.Slice(); !slices.Equal(got, want) {
		t.Fatalf("step %d: Slice = %v, want %v", step, got, want)
	}
	var walked []FD
	s.ForEach(func(f FD) { walked = append(walked, f) })
	if !slices.Equal(walked, want) {
		t.Fatalf("step %d: ForEach walked %v, want %v", step, walked, want)
	}
	for _, f := range want {
		if !s.Contains(f) {
			t.Fatalf("step %d: Contains(%v) = false for a member", step, f)
		}
	}
	compact, indented := refSetJSON(t, want)
	if got, _ := s.MarshalJSON(); !bytes.Equal(got, compact) {
		t.Fatalf("step %d: MarshalJSON\n got %s\nwant %s", step, got, compact)
	}
	if got := AppendIndentJSON(nil, s, "  ", "  "); !bytes.Equal(got, indented) {
		t.Fatalf("step %d: AppendIndentJSON\n got %s\nwant %s", step, got, indented)
	}
}
