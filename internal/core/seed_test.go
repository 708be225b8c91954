package core

import (
	"testing"

	"eulerfd/internal/preprocess"
)

// TestSeedZeroByteIdentical pins the compatibility contract of seed.go:
// Seed = 0 must run the exact pre-seed schedule, so a zero-seeded run
// matches an unseeded one on every observable (FDs and all counters).
func TestSeedZeroByteIdentical(t *testing.T) {
	for name, rel := range parallelTestRelations() {
		enc := preprocess.Encode(rel)
		opt := DefaultOptions()
		opt.Workers = 1
		want, wantStats := DiscoverEncoded(enc, opt)
		opt.Seed = 0
		got, gotStats := DiscoverEncoded(enc, opt)
		if !want.Equal(got) {
			t.Errorf("%s: Seed=0 FD set differs from unseeded run", name)
		}
		if wantStats.PairsCompared != gotStats.PairsCompared || wantStats.AgreeSets != gotStats.AgreeSets ||
			wantStats.NcoverSize != gotStats.NcoverSize || wantStats.PcoverSize != gotStats.PcoverSize {
			t.Errorf("%s: Seed=0 stats differ from unseeded run: %+v vs %+v", name, gotStats, wantStats)
		}
	}
}

// TestSeedDeterministicAcrossWorkers is the seeded engine's determinism
// contract: the schedule perturbation happens once, on the coordinator,
// before the first pass, so a given seed computes the same result for
// every Workers value.
func TestSeedDeterministicAcrossWorkers(t *testing.T) {
	for name, rel := range parallelTestRelations() {
		enc := preprocess.Encode(rel)
		for _, seedv := range []uint64{1, 42, 1 << 63} {
			opt := DefaultOptions()
			opt.Seed = seedv
			opt.Workers = 1
			want, wantStats := DiscoverEncoded(enc, opt)
			for _, workers := range []int{2, 4, 8} {
				opt.Workers = workers
				got, gotStats := DiscoverEncoded(enc, opt)
				if !want.Equal(got) {
					t.Errorf("%s: seed=%d workers=%d FD set differs from sequential", name, seedv, workers)
				}
				if wantStats.PairsCompared != gotStats.PairsCompared || wantStats.AgreeSets != gotStats.AgreeSets {
					t.Errorf("%s: seed=%d workers=%d pairs/agreeSets differ: %d/%d vs %d/%d",
						name, seedv, workers, gotStats.PairsCompared, gotStats.AgreeSets, wantStats.PairsCompared, wantStats.AgreeSets)
				}
			}
		}
	}
}

// TestSeedRepeatable: the same seed twice is the same run twice.
func TestSeedRepeatable(t *testing.T) {
	rel := parallelTestRelations()["uci"]
	enc := preprocess.Encode(rel)
	opt := DefaultOptions()
	opt.Seed = 7
	a, aStats := DiscoverEncoded(enc, opt)
	b, bStats := DiscoverEncoded(enc, opt)
	if !a.Equal(b) || aStats.PairsCompared != bStats.PairsCompared {
		t.Fatalf("seed=7 not repeatable: %d vs %d FDs, %d vs %d pairs",
			a.Len(), b.Len(), aStats.PairsCompared, bStats.PairsCompared)
	}
}

// TestSeedPerturbsSchedule: a nonzero seed must actually change the
// sampling schedule on data big enough to have rotation room — otherwise
// ensembles would vote on N copies of one run. The *result* may coincide;
// the pair count of the capa-parked schedule is the sensitive observable,
// so at least one of a handful of seeds must move it.
func TestSeedPerturbsSchedule(t *testing.T) {
	rel := parallelTestRelations()["weather"]
	enc := preprocess.Encode(rel)
	opt := DefaultOptions()
	opt.Workers = 1
	_, base := DiscoverEncoded(enc, opt)
	for _, seedv := range []uint64{1, 2, 3, 4, 5} {
		opt.Seed = seedv
		_, got := DiscoverEncoded(enc, opt)
		if got.PairsCompared != base.PairsCompared || got.AgreeSets != base.AgreeSets {
			return
		}
	}
	t.Fatalf("seeds 1..5 all reproduced the unseeded schedule (pairs=%d agreeSets=%d)", base.PairsCompared, base.AgreeSets)
}

// TestSeedExhaustiveStillExact: window-cycle rotation covers every window
// size exactly once, so ExhaustWindows keeps its exactness guarantee
// under any seed — all seeds converge to the same (exact) cover.
func TestSeedExhaustiveStillExact(t *testing.T) {
	for name, rel := range parallelTestRelations() {
		enc := preprocess.Encode(rel)
		opt := DefaultOptions()
		opt.ExhaustWindows = true
		opt.Workers = 1
		want, wantStats := DiscoverEncoded(enc, opt)
		for _, seedv := range []uint64{9, 1234567} {
			opt.Seed = seedv
			got, gotStats := DiscoverEncoded(enc, opt)
			if !want.Equal(got) {
				t.Errorf("%s: exhaustive seed=%d FD set differs from exact cover", name, seedv)
			}
			if wantStats.AgreeSets != gotStats.AgreeSets {
				t.Errorf("%s: exhaustive seed=%d agree-set census %d, want %d", name, seedv, gotStats.AgreeSets, wantStats.AgreeSets)
			}
		}
	}
}

// TestSetSeedAfterBatchPanics pins the misuse guard: the schedule is
// fixed once sampling has started.
func TestSetSeedAfterBatchPanics(t *testing.T) {
	enc := preprocess.Encode(patientRelation())
	s := NewSampler(enc, 6, 3)
	s.Drain()
	defer func() {
		if recover() == nil {
			t.Fatal("SetSeed after Drain did not panic")
		}
	}()
	s.SetSeed(1)
}
