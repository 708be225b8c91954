package cover

import (
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
// tree.
func TestInvertSteadyStateAllocFree(t *testing.T) {
	p := NewPCover(12, nil)
	tree := p.Tree(11)
	tree.Remove(fdset.EmptySet())
	for _, s := range []fdset.AttrSet{
		fdset.NewAttrSet(0, 1), fdset.NewAttrSet(1, 10), // {0,1}+10 blocked by {1,10}
		fdset.NewAttrSet(2, 3), fdset.NewAttrSet(3, 10), // {2,3}+10 blocked by {3,10}
		fdset.NewAttrSet(0, 9),                // {0,9}+10 admitted
		fdset.NewAttrSet(3, 4, 5, 6, 7, 8, 9), // +10 blocked by {3,10}
		fdset.NewAttrSet(0, 2, 4, 5, 6, 7, 8), // +10 admitted
	} {
		tree.Add(s)
	}
	nonFD := fdset.FD{LHS: fdset.NewAttrSet(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), RHS: 11}
	before := tree.Sets()
	if added := p.Invert(nonFD); added != 2 {
		t.Fatalf("fixture inversion added %d candidates, want 2", added)
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
	assertZeroAllocs(t, "Invert", func() {
		for _, s := range candidates {
			tree.Remove(s)
		}
		for _, s := range generals {
			tree.Add(s)
		}
		p.Invert(nonFD)
	})
}

// TestShardSplitAllocFree pins the RHS-sharding helper: a warmed buffer
// splits a batch of the same size without allocating.
func TestShardSplitAllocFree(t *testing.T) {
	const ncols = 12
	batch := randomNonFDs(ncols, 500, 5)
	var b rhsShards
	assertZeroAllocs(t, "rhsShards.split", func() {
		b.split(batch, ncols)
	})
}

// TestShardSplitStableByRHS checks the helper's order contract: ascending
// RHS, batch order within one RHS, nothing lost.
func TestShardSplitStableByRHS(t *testing.T) {
	const ncols = 7
	batch := randomNonFDs(ncols, 300, 11)
	var b rhsShards
	for round := 0; round < 2; round++ { // the second split reuses the buffers
		shards := b.split(batch[:len(batch)-round*50], ncols)
		var want [ncols][]fdset.FD
		for _, f := range batch[:len(batch)-round*50] {
			want[f.RHS] = append(want[f.RHS], f)
		}
		k := 0
		for rhs := 0; rhs < ncols; rhs++ {
			if len(want[rhs]) == 0 {
				continue
			}
			if k >= len(shards) || len(shards[k]) != len(want[rhs]) {
				t.Fatalf("round %d: shard %d does not hold RHS %d's %d FDs", round, k, rhs, len(want[rhs]))
			}
			for i, f := range want[rhs] {
				if got := batch[shards[k][i]]; got != f {
					t.Fatalf("round %d: RHS %d position %d = %v, want %v", round, rhs, i, got, f)
				}
			}
			k++
		}
		if k != len(shards) {
			t.Fatalf("round %d: %d shards, want %d", round, len(shards), k)
		}
	}
}
