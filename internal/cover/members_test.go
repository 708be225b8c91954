package cover

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"eulerfd/internal/fdset"
)

// memberKey is a set of up to fdset.NumWords words, as a Go map key.
type memberKey [fdset.NumWords]uint64

func key(s []uint64) memberKey {
	var k memberKey
	copy(k[:], s)
	return k
}

// memberRef is the reference a table is held to: a Go map of counts,
// holding exactly the stored keys, and the list of keys in the order
// they joined it.
type memberRef struct {
	counts map[memberKey]int64
	order  []memberKey
}

func newMemberRef() *memberRef { return &memberRef{counts: map[memberKey]int64{}} }

func (r *memberRef) has(k memberKey) bool {
	_, ok := r.counts[k]
	return ok
}

// join stores k with count 0 unless it is stored.
func (r *memberRef) join(k memberKey) {
	if !r.has(k) {
		r.counts[k] = 0
		r.order = append(r.order, k)
	}
}

// checkMembers fails unless m stores exactly the keys of ref, each found
// by has with its count and visited once by Each, every slot is empty or
// holds a key its probe reaches, and an ordered table lists ref's
// joining order.
func checkMembers(t *testing.T, m *Masks, ref *memberRef) {
	t.Helper()
	if m.Len() != len(ref.counts) {
		t.Fatalf("Len() = %d, want %d", m.Len(), len(ref.counts))
	}
	for k, v := range ref.counts {
		if !m.has(k[:m.mw]) {
			t.Fatalf("has(%x) = false for a stored key", k[:m.mw])
		}
		if m.counts != nil && m.Get(k[:m.mw]) != v {
			t.Fatalf("Get(%x) = %d, want %d", k[:m.mw], m.Get(k[:m.mw]), v)
		}
	}
	n := 0
	for o := 0; o < len(m.slots); o += m.mw {
		s, i := m.slots[o:o+m.mw], o/m.mw
		if isZero(s) {
			if m.counts != nil && m.counts[i] != 0 {
				t.Fatalf("empty slot %d has count %d", i, m.counts[i])
			}
			continue
		}
		n++
		if !ref.has(key(s)) {
			t.Fatalf("slot %d holds %x, which is not stored", i, s)
		}
		if j, ok := m.find(s); !ok || int(j) != i {
			t.Fatalf("slot %d holds %x, but its probe ends at slot %d", i, s, j)
		}
	}
	if m.empty {
		n++
	}
	if n != len(ref.counts) || m.empty != ref.has(memberKey{}) {
		t.Fatalf("%d occupied slots and ∅ flag %v for %d stored keys", n, m.empty, len(ref.counts))
	}
	visited := map[memberKey]bool{}
	m.Each(func(s []uint64) {
		if k := key(s); len(s) != m.mw || !ref.has(k) || visited[k] {
			t.Fatalf("Each visits %x, which is not a stored key or was visited already", s)
		}
		visited[key(s)] = true
	})
	if len(visited) != len(ref.counts) {
		t.Fatalf("Each visits %d keys, want %d", len(visited), len(ref.counts))
	}
	if m.ordered {
		var order []memberKey
		m.EachOrdered(func(s []uint64, v int64) {
			if v != ref.counts[key(s)] {
				t.Fatalf("EachOrdered gives %x count %d, want %d", s, v, ref.counts[key(s)])
			}
			order = append(order, key(s))
		})
		if !slices.Equal(order, ref.order) {
			t.Fatalf("EachOrdered lists %d keys, want the %d of the joining order", len(order), len(ref.order))
		}
	}
}

// memberOp applies one operation to m and to its reference, failing on
// any disagreement: 0 insert, 1 remove, 2 has, and on a counted table 3
// Add, 4 Get, 5 Put (of 0 when v is even, which removes the key), 6
// AddRuns over run and 7 nextNew over run. run is a buffer of whole
// keys, s one key.
func memberOp(t *testing.T, m *Masks, ref *memberRef, op int, s, run []uint64, v int64) {
	t.Helper()
	k := key(s)
	switch op {
	case 0:
		if got, want := m.insert(s), !ref.has(k); got != want {
			t.Fatalf("insert(%x) = %v, want %v", s, got, want)
		}
		ref.join(k)
	case 1:
		if got, want := m.remove(s), ref.has(k); got != want {
			t.Fatalf("remove(%x) = %v, want %v", s, got, want)
		}
		delete(ref.counts, k)
	case 2:
		if got, want := m.has(s), ref.has(k); got != want {
			t.Fatalf("has(%x) = %v, want %v", s, got, want)
		}
	case 3:
		m.Add(s, v)
		ref.join(k)
		ref.counts[k] += v
	case 4:
		if got, want := m.Get(s), ref.counts[k]; got != want {
			t.Fatalf("Get(%x) = %d, want %d", s, got, want)
		}
	case 5:
		if v%2 == 0 {
			v = 0
		}
		m.Put(s, v)
		if v == 0 {
			delete(ref.counts, k)
		} else {
			ref.join(k)
			ref.counts[k] = v
		}
	case 6:
		perAttr := v%2 == 0
		m.AddRuns(run, v, perAttr)
		for i := 0; i < len(run); {
			j := i + m.mw
			for j < len(run) && slices.Equal(run[j:j+m.mw], run[i:i+m.mw]) {
				j += m.mw
			}
			if r := run[i : i+m.mw]; !isZero(r) {
				n := v * int64((j-i)/m.mw)
				if perAttr {
					c := 0
					for _, x := range r {
						c += bits.OnesCount64(x)
					}
					n *= int64(c)
				}
				ref.join(key(r))
				ref.counts[key(r)] += n
			}
			i = j
		}
	case 7:
		var got, want []int
		for i := m.nextNew(run, 0); i < len(run); i = m.nextNew(run, i+m.mw) {
			got = append(got, i)
		}
		for i := 0; i < len(run); i += m.mw {
			r := run[i : i+m.mw]
			if (i == 0 || !slices.Equal(r, run[i-m.mw:i])) && !ref.has(key(r)) {
				ref.join(key(r))
				want = append(want, i)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("nextNew over %x stops at %v, want %v", run, got, want)
		}
	}
}

// wrapKeys returns n distinct non-empty one-word keys whose probes start
// at the last slot of an 8-slot table, so they run across its end.
func wrapKeys(n int) []uint64 {
	m := NewMasks(1, false, false)
	var out []uint64
	for x := uint64(1); len(out) < n; x++ {
		if m.home([]uint64{x}) == m.mask {
			out = append(out, x)
		}
	}
	return out
}

// TestMembersAgainstMap holds the table to its reference at one, two and
// six words through random operations that grow it over several
// doublings, with ∅ among the keys: a tree's plain table through insert,
// remove and has, and a counted, ordered one through those and Add, Get,
// Put and both run loops as well.
func TestMembersAgainstMap(t *testing.T) {
	for _, mw := range []int{1, 2, 6} {
		for _, counted := range []bool{false, true} {
			r := rand.New(rand.NewSource(int64(mw)))
			m, ref := NewMasks(mw, counted, counted), newMemberRef()
			ops := 3
			if counted {
				ops = 8
			}
			// Few distinct keys, so inserts collide with stored ones and
			// removals find them; the universe widens as the run goes on.
			draw := func(s []uint64, universe int) {
				clear(s)
				for i := range s {
					if r.Intn(3) == 0 {
						s[i] = uint64(r.Intn(universe))
					}
				}
			}
			s, run := make([]uint64, mw), make([]uint64, 0, 8*mw)
			for op := 0; op < 6000; op++ {
				universe := 4 + op/20
				draw(s, universe)
				run = run[:0]
				for len(run) < cap(run) && r.Intn(8) != 0 {
					if len(run) == 0 || r.Intn(2) == 0 {
						draw(s, universe)
					}
					run = append(run, s...)
				}
				memberOp(t, m, ref, r.Intn(ops), s, run, int64(r.Intn(7)-3))
				if op%100 == 0 {
					checkMembers(t, m, ref)
				}
			}
			checkMembers(t, m, ref)
			if slots := len(m.slots) / mw; slots < 8*minSlots {
				t.Errorf("mw %d: table of %d slots never grew over several doublings", mw, slots)
			}
		}
	}
}

// TestMembersWrapAround deletes and re-inserts keys whose probe runs
// cross the end of the slot array, where backward shifting must move a
// key, and its count, from the front slots to the back ones.
func TestMembersWrapAround(t *testing.T) {
	keys := wrapKeys(3) // a table of 8 slots holds 3 keys before it grows
	for del := range keys {
		m, ref := NewMasks(1, true, false), newMemberRef()
		for i, x := range keys {
			memberOp(t, m, ref, 3, []uint64{x}, nil, int64(i+1))
		}
		if len(m.slots) != minSlots {
			t.Fatalf("table grew to %d slots for %d keys", len(m.slots), len(keys))
		}
		if m.slots[minSlots-1] != keys[0] || m.slots[0] != keys[1] || m.slots[1] != keys[2] {
			t.Fatalf("keys %x do not wrap around the table: slots %x", keys, m.slots)
		}
		x := []uint64{keys[del]}
		memberOp(t, m, ref, 1, x, nil, 0)
		memberOp(t, m, ref, 1, x, nil, 0)
		checkMembers(t, m, ref)
		memberOp(t, m, ref, 0, x, nil, 0)
		memberOp(t, m, ref, 0, x, nil, 0)
		checkMembers(t, m, ref)
	}
}

// TestMembersEmptySet stores ∅ beside its slots, at one and two words.
func TestMembersEmptySet(t *testing.T) {
	for _, mw := range []int{1, 2} {
		m := NewMasks(mw, false, false)
		empty, one := make([]uint64, mw), make([]uint64, mw)
		one[mw-1] = 1
		if m.has(empty) || !m.insert(empty) || m.insert(empty) || !m.has(empty) || m.has(one) {
			t.Fatalf("mw %d: ∅ not stored exactly once", mw)
		}
		if !m.insert(one) || m.Len() != 2 || !m.remove(empty) || m.has(empty) || !m.has(one) || m.Len() != 1 {
			t.Fatalf("mw %d: ∅ and {%x} do not coexist", mw, one)
		}
		if m.remove(empty) {
			t.Fatalf("mw %d: ∅ removed twice", mw)
		}
	}
}

// FuzzMembers holds the table to its reference: a tree's plain table at
// one and two words, and a counted, ordered one at one, two and six. Each
// op is three bytes: the kind (insert, remove or has on the plain table,
// by byte mod 3; memberOp's eight kinds on the counted one, by byte mod
// 8, with the count from the byte's high bits) and two bytes of a key
// that the op spreads over the words, so keys collide and wrap around
// small tables. The run loops read the op's key and the next two. Every
// op checks the whole table, so an input runs at most 1024 ops.
func FuzzMembers(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0, 0, 0, 1, 0xff, 0xff, 1, 0, 0, 2, 0, 0})
	f.Add([]byte{3, 1, 0, 0x1e, 0, 0, 6, 1, 0, 0x17, 1, 0, 5, 1, 0, 4, 1, 0, 0x23, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 3*1024)]
		decode := func(s []uint64, i int) {
			clear(s)
			if i+2 < len(data) {
				s[0] = uint64(data[i+1])
				s[len(s)-1] |= uint64(data[i+2]) << 40
			}
		}
		for _, c := range []struct {
			mw, kinds int
		}{{1, 3}, {2, 3}, {1, 8}, {2, 8}, {6, 8}} {
			counted := c.kinds == 8
			m, ref := NewMasks(c.mw, counted, counted), newMemberRef()
			s, run := make([]uint64, c.mw), make([]uint64, 3*c.mw)
			for i := 0; i+2 < len(data); i += 3 {
				for k := 0; k < 3; k++ {
					decode(run[k*c.mw:(k+1)*c.mw], i+3*k)
				}
				decode(s, i)
				memberOp(t, m, ref, int(data[i])%c.kinds, s, run, int64(data[i]/8%7)-3)
				checkMembers(t, m, ref)
			}
		}
	})
}
