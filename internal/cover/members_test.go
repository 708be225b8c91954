package cover

import (
	"math/rand"
	"testing"

	"eulerfd/internal/fdset"
)

// memberKey is a set of up to fdset.NumWords words, as a Go map key.
type memberKey [fdset.NumWords]uint64

// memberRef is the reference the table is held to: a Go map.
type memberRef map[memberKey]bool

func key(s []uint64) memberKey {
	var k memberKey
	copy(k[:], s)
	return k
}

// len returns the number of stored sets, ∅ included.
func (m *members) len() int {
	if m.empty {
		return m.n + 1
	}
	return m.n
}

// checkMembers fails unless m stores exactly the sets of ref, each found
// by has, and every slot is empty or holds a set its probe reaches.
func checkMembers(t *testing.T, m *members, ref memberRef) {
	t.Helper()
	if m.len() != len(ref) {
		t.Fatalf("len() = %d, want %d", m.len(), len(ref))
	}
	for k := range ref {
		if !m.has(k[:m.mw]) {
			t.Fatalf("has(%x) = false for a stored set", k[:m.mw])
		}
	}
	n := 0
	for o := 0; o < len(m.slots); o += m.mw {
		s := m.slots[o : o+m.mw]
		if isZero(s) {
			continue
		}
		n++
		if !ref[key(s)] {
			t.Fatalf("slot %d holds %x, which is not stored", o/m.mw, s)
		}
		if i, ok := m.find(s); !ok || int(i) != o/m.mw {
			t.Fatalf("slot %d holds %x, but its probe ends at slot %d", o/m.mw, s, i)
		}
	}
	if m.empty {
		n++
	}
	if n != len(ref) || m.empty != ref[memberKey{}] {
		t.Fatalf("%d occupied slots and ∅ flag %v for %d stored sets", n, m.empty, len(ref))
	}
}

// wrapKeys returns n distinct non-empty one-word keys whose probes start
// at the last slot of an 8-slot table, so they run across its end.
func wrapKeys(n int) []uint64 {
	m := newMembers(1)
	var out []uint64
	for x := uint64(1); len(out) < n; x++ {
		if m.home([]uint64{x}) == m.mask {
			out = append(out, x)
		}
	}
	return out
}

// TestMembersAgainstMap holds the table to a Go map at one, two and six
// words through random inserts, deletes and probes that grow it over
// several doublings, with ∅ among the sets.
func TestMembersAgainstMap(t *testing.T) {
	for _, mw := range []int{1, 2, 6} {
		r := rand.New(rand.NewSource(int64(mw)))
		m, ref := newMembers(mw), memberRef{}
		s := make([]uint64, mw)
		for op := 0; op < 6000; op++ {
			// Few distinct sets, so inserts collide with stored ones and
			// deletes find them; the universe widens as the run goes on.
			clear(s)
			universe := 4 + op/20
			for i := range s {
				if r.Intn(3) == 0 {
					s[i] = uint64(r.Intn(universe))
				}
			}
			k := key(s)
			switch r.Intn(4) {
			case 0, 1:
				if got, want := m.insert(s), !ref[k]; got != want {
					t.Fatalf("mw %d, op %d: insert(%x) = %v, want %v", mw, op, s, got, want)
				}
				ref[k] = true
			case 2:
				if got, want := m.remove(s), ref[k]; got != want {
					t.Fatalf("mw %d, op %d: remove(%x) = %v, want %v", mw, op, s, got, want)
				}
				delete(ref, k)
			case 3:
				if got, want := m.has(s), ref[k]; got != want {
					t.Fatalf("mw %d, op %d: has(%x) = %v, want %v", mw, op, s, got, want)
				}
			}
			if op%100 == 0 {
				checkMembers(t, &m, ref)
			}
		}
		checkMembers(t, &m, ref)
		if slots := len(m.slots) / mw; slots < 8*minSlots {
			t.Errorf("mw %d: table of %d slots never grew over several doublings", mw, slots)
		}
	}
}

// TestMembersWrapAround deletes and re-inserts sets whose probe runs
// cross the end of the slot array, where backward shifting must move a
// set from the front slots to the back ones.
func TestMembersWrapAround(t *testing.T) {
	keys := wrapKeys(3) // a table of 8 slots holds 3 sets before it grows
	for del := range keys {
		m, ref := newMembers(1), memberRef{}
		for _, x := range keys {
			m.insert([]uint64{x})
			ref[key([]uint64{x})] = true
		}
		if len(m.slots) != minSlots {
			t.Fatalf("table grew to %d slots for %d sets", len(m.slots), len(keys))
		}
		if m.slots[minSlots-1] != keys[0] || m.slots[0] != keys[1] || m.slots[1] != keys[2] {
			t.Fatalf("sets %x do not wrap around the table: slots %x", keys, m.slots)
		}
		x := []uint64{keys[del]}
		if !m.remove(x) || m.remove(x) {
			t.Fatalf("remove(%x) did not remove it exactly once", x)
		}
		delete(ref, key(x))
		checkMembers(t, &m, ref)
		if !m.insert(x) || m.insert(x) {
			t.Fatalf("insert(%x) after its removal did not store it exactly once", x)
		}
		ref[key(x)] = true
		checkMembers(t, &m, ref)
	}
}

// TestMembersEmptySet stores ∅ beside its slots, at one and two words.
func TestMembersEmptySet(t *testing.T) {
	for _, mw := range []int{1, 2} {
		m := newMembers(mw)
		empty, one := make([]uint64, mw), make([]uint64, mw)
		one[mw-1] = 1
		if m.has(empty) || !m.insert(empty) || m.insert(empty) || !m.has(empty) || m.has(one) {
			t.Fatalf("mw %d: ∅ not stored exactly once", mw)
		}
		if !m.insert(one) || m.len() != 2 || !m.remove(empty) || m.has(empty) || !m.has(one) || m.len() != 1 {
			t.Fatalf("mw %d: ∅ and {%x} do not coexist", mw, one)
		}
		if m.remove(empty) {
			t.Fatalf("mw %d: ∅ removed twice", mw)
		}
	}
}

// FuzzMembers holds the table to a Go map at one and two words. Each op
// is three bytes: the kind (insert, remove or probe, by byte mod 3) and
// two bytes of a key that the op spreads over the words, so keys collide
// and wrap around small tables.
func FuzzMembers(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 0, 0, 0, 2, 0, 0})
	f.Add([]byte{0, 0xff, 0xff, 0, 0, 0, 1, 0xff, 0xff, 1, 0, 0, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mw := range []int{1, 2} {
			m, ref := newMembers(mw), memberRef{}
			s := make([]uint64, mw)
			for i := 0; i+2 < len(data); i += 3 {
				clear(s)
				s[0] = uint64(data[i+1])
				s[mw-1] |= uint64(data[i+2]) << 40
				k := key(s)
				var got, want bool
				switch data[i] % 3 {
				case 0:
					got, want = m.insert(s), !ref[k]
					ref[k] = true
				case 1:
					got, want = m.remove(s), ref[k]
					delete(ref, k)
				case 2:
					got, want = m.has(s), ref[k]
				}
				if got != want {
					t.Fatalf("mw %d, op %d (kind %d) on %x: %v, want %v", mw, i/3, data[i]%3, s, got, want)
				}
				checkMembers(t, &m, ref)
			}
		}
	})
}
