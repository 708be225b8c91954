package cover

import (
	"fmt"
	"slices"
	"testing"

	"eulerfd/internal/fdset"
	"eulerfd/internal/testutil"
)

// assertZeroAllocs pins the steady state of a cover kernel at zero
// allocations per run. Skipped under -race because the detector
// instruments allocations.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	fn() // warm up: grow scratch and free lists to the high-water mark
	if allocs := testing.AllocsPerRun(20, fn); allocs != 0 {
		t.Errorf("%s: %.1f allocs per run, want 0", name, allocs)
	}
}

// TestInvertSteadyStateAllocFree pins inversion on a warmed tree: undoing
// an inversion (removing its candidates, re-adding its generals) and
// inverting again must reuse the recycled nodes and the tree's scratch.
// The fixture exercises both blocker paths, blocked and admitted: small
// generals probe the enumerated table, ones over enumLimit search the
// tree. It runs on a one-word tree and, shifted to attributes 60–71 of a
// 72-column cover whose other attributes pad the non-FD, on a two-word
// tree whose sets straddle the word boundary.
func TestInvertSteadyStateAllocFree(t *testing.T) {
	for _, off := range []int{0, 60} {
		ncols := off + 12
		at := func(attrs ...int) fdset.AttrSet {
			var s fdset.AttrSet
			for _, a := range attrs {
				s.Add(off + a)
			}
			return s
		}
		p := NewPCover(ncols, nil)
		tree := p.Tree(off + 11)
		tree.Remove(fdset.EmptySet())
		for _, s := range []fdset.AttrSet{
			at(0, 1), at(1, 10), // {0,1}+10 blocked by {1,10}
			at(2, 3), at(3, 10), // {2,3}+10 blocked by {3,10}
			at(0, 9),                // {0,9}+10 admitted
			at(3, 4, 5, 6, 7, 8, 9), // +10 blocked by {3,10}
			at(0, 2, 4, 5, 6, 7, 8), // +10 admitted
		} {
			tree.Add(s)
		}
		pad := fdset.FullSet(off)
		nonFD := fdset.FD{LHS: at(0, 1, 2, 3, 4, 5, 6, 7, 8, 9).Union(pad), RHS: off + 11}
		before := tree.Sets()
		if added := p.Invert(nonFD); added != 2 {
			t.Fatalf("off %d: fixture inversion added %d candidates, want 2", off, added)
		}
		after := tree.Sets()
		var generals, candidates []fdset.AttrSet
		for _, s := range before {
			if !tree.Contains(s) {
				generals = append(generals, s)
			}
		}
		for _, s := range after {
			if !slices.Contains(before, s) {
				candidates = append(candidates, s)
			}
		}
		assertZeroAllocs(t, fmt.Sprintf("Invert at %d words", tree.mw), func() {
			for _, s := range candidates {
				tree.Remove(s)
			}
			for _, s := range generals {
				tree.Add(s)
			}
			p.Invert(nonFD)
		})
	}
}

// TestPendingSteadyStateAllocFree pins the double cycle's cover stages on
// warmed trees: admitting an agree-set batch into each RHS's negative
// cover tree, marking what it stores pending, then taking and inverting
// the marks into the positive cover. Between runs the covers are rebuilt
// in place from their own recycled nodes, so each run repeats the same
// work. It runs at one and at two words.
func TestPendingSteadyStateAllocFree(t *testing.T) {
	for _, off := range []int{0, 60} {
		ncols := off + 8
		at := func(attrs ...int) fdset.AttrSet {
			s := fdset.FullSet(off)
			for _, a := range attrs {
				s.Add(off + a)
			}
			return s
		}
		batch := []fdset.AttrSet{at(0, 1), at(1, 2), at(0, 1, 2), at(3, 4), at(0, 5, 6), at(2, 3, 4, 7)}
		var flat []uint64
		for _, x := range batch {
			for i := 0; i < (ncols+63)/64; i++ {
				flat = append(flat, x.Word(i))
			}
		}
		n, p := NewNCover(ncols, nil), NewPCover(ncols, nil)
		run := func() {
			for rhs := off; rhs < ncols; rhs++ {
				nt, pt := n.trees[rhs], p.trees[rhs]
				nt.reset()
				pt.reset()
				pt.Add(fdset.EmptySet())
				nt.admitAll(flat, rhs)
				pt.invertPending(nt, rhs, ncols)
			}
		}
		run()
		if n.Size() == 0 || p.Size() == ncols {
			t.Fatalf("off %d: fixture admitted %d sets and left %d candidates", off, n.Size(), p.Size())
		}
		assertZeroAllocs(t, fmt.Sprintf("admit and invert pending at %d words", n.trees[off].mw), run)
	}
}

// TestMembersSteadyStateAllocFree pins the membership table once grown:
// probing, deleting and re-inserting its sets allocates nothing, at one
// and at two words.
func TestMembersSteadyStateAllocFree(t *testing.T) {
	for _, mw := range []int{1, 2} {
		m := NewMasks(mw, false, false)
		var keys []uint64
		for k := uint64(1); k <= 200; k++ {
			key := make([]uint64, mw)
			key[mw-1] = k * 0x51
			keys = append(keys, key...)
			m.insert(key)
		}
		probe := make([]uint64, mw)
		assertZeroAllocs(t, fmt.Sprintf("members at %d words", mw), func() {
			for o := 0; o < len(keys); o += mw {
				key := keys[o : o+mw]
				copy(probe, key)
				probe[0] ^= 1 << 62
				if !m.has(key) || m.has(probe) || !m.remove(key) || !m.insert(key) {
					t.Fatal("table lost a key")
				}
			}
		})
	}
}

// TestCountedMasksSteadyStateAllocFree pins a counted table once grown,
// as core's witness tallies use it: adding runs of keys it holds, reading
// and setting their counts, and removing and re-adding them allocate
// nothing, at one and at two words.
func TestCountedMasksSteadyStateAllocFree(t *testing.T) {
	for _, mw := range []int{1, 2} {
		m := NewMasks(mw, true, false)
		var keys []uint64
		for k := uint64(1); k <= 200; k++ {
			key := make([]uint64, mw)
			key[mw-1] = k * 0x51
			keys = append(keys, key...)
			keys = append(keys, key...) // a run of two
		}
		m.AddRuns(keys, 1, true)
		assertZeroAllocs(t, fmt.Sprintf("counted masks at %d words", mw), func() {
			m.AddRuns(keys, 1, false)
			for o := 0; o < len(keys); o += 2 * mw {
				key := keys[o : o+mw]
				v := m.Get(key)
				m.Put(key, 0)
				m.Add(key, v)
				if m.Get(key) != v {
					t.Fatal("table lost a count")
				}
			}
		})
	}
}
