package cover

import (
	"fmt"
	"runtime"
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

// readOutAllocs is what PCover.FDs allocates on an unchanged cover: the
// returned set, its run headers and its one mask array.
const readOutAllocs = 3

// loadTrees fills every tree of p with perTree distinct sets drawn from
// randomAgreeSets, without the tree's RHS.
func loadTrees(p *PCover, perTree int, seed int64) {
	for rhs, tree := range p.trees {
		tree.Remove(fdset.EmptySet())
		for i := int64(0); tree.Size() < perTree; i++ {
			for _, s := range randomAgreeSets(p.ncols, perTree, seed+i) {
				if tree.Size() < perTree {
					tree.Add(s.Without(rhs))
				}
			}
		}
	}
}

// TestPCoverFDsAllocsConstant pins what a warm read-out allocates: on an
// unchanged cover the returned set alone, and after a fixed churn (two
// stored sets of each of four trees swapped for two new ones, and back
// on the next run) at most one array more per changed run, the same
// count on a cover of 40 sets per tree as on one of 2,000.
func TestPCoverFDsAllocsConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	// A process's first collection starts the runtime's mark workers,
	// which allocate; let it happen before counting.
	runtime.GC()
	const ncols, churned = 16, 4
	var counts []float64
	for _, perTree := range []int{40, 2000} {
		p := NewPCover(ncols, nil)
		loadTrees(p, perTree, 1)
		var out, in []fdset.FD
		for rhs := 0; rhs < churned; rhs++ {
			tree := p.trees[rhs]
			sets := tree.Sets()
			out = append(out, fdset.FD{LHS: sets[0], RHS: rhs}, fdset.FD{LHS: sets[1], RHS: rhs})
			for _, s := range randomAgreeSets(ncols, 64, 99) {
				if f := (fdset.FD{LHS: s.Without(rhs), RHS: rhs}); !tree.Contains(f.LHS) && !slices.Contains(in, f) && len(in) < 2*(rhs+1) {
					in = append(in, f)
				}
			}
		}
		forward := true
		churn := func() {
			del, add := out, in
			if !forward {
				del, add = in, out
			}
			forward = !forward
			for _, f := range del {
				p.trees[f.RHS].Remove(f.LHS)
			}
			for _, f := range add {
				p.trees[f.RHS].Add(f.LHS)
			}
		}
		p.FDs()
		if got := testing.AllocsPerRun(20, func() { p.FDs() }); got != readOutAllocs {
			t.Errorf("%d sets per tree: unchanged read-out allocates %.1f times, want %d", perTree, got, readOutAllocs)
		}
		for i := 0; i < 4; i++ { // grow the runs and logs to the churn's high-water mark
			churn()
			p.FDs()
		}
		got := testing.AllocsPerRun(20, func() {
			churn()
			p.FDs()
		})
		if got > readOutAllocs+churned {
			t.Errorf("%d sets per tree: read-out after the churn allocates %.1f times, want at most %d", perTree, got, readOutAllocs+churned)
		}
		counts = append(counts, got)
	}
	if counts[0] != counts[1] {
		t.Errorf("read-out after the churn allocates %.1f times at 40 sets per tree and %.1f at 2,000", counts[0], counts[1])
	}
}

// TestPCoverFDsLogBound drives one tree through ten times as many inserts
// as it holds sets, with no read-out between: its log must never list
// more sets than the tree holds nor keep more than twice that capacity,
// and must be dropped, and the next read-out, which reads that tree in
// full, must still equal NewSet over the trees' sets. It runs at one and
// at two words.
func TestPCoverFDsLogBound(t *testing.T) {
	for _, ncols := range []int{12, 72} {
		p := NewPCover(ncols, nil)
		loadTrees(p, 50, 7)
		p.FDs()
		tree := p.trees[3]
		fresh := randomAgreeSets(ncols, 20*tree.Size(), 11)
		for i := 0; i < 10*50; i++ {
			tree.Remove(tree.Sets()[i%tree.Size()])
			for !tree.Add(fresh[0].Without(3)) {
				fresh = fresh[1:]
			}
			if words := tree.mw * tree.Size(); len(tree.log) > words || cap(tree.log) > 2*words {
				t.Fatalf("%d columns, insert %d: log of %d words (capacity %d) in a tree of %d sets", ncols, i, len(tree.log), cap(tree.log), tree.Size())
			}
		}
		if tree.logging {
			t.Fatalf("%d columns: the log outgrew the tree but is still kept", ncols)
		}
		if got, want := p.FDs(), treeSets(p); !got.Equal(want) {
			t.Fatalf("%d columns: read-out after the log was dropped differs from NewSet over the trees' sets", ncols)
		}
		if !tree.logging || len(tree.log) != 0 {
			t.Fatalf("%d columns: the read-out did not restart the log", ncols)
		}
	}
}
