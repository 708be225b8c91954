package core

import (
	"fmt"
	"math/rand"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/naive"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
)

// parallelTestRelations are shapes that exercise the parallel paths:
// clusters large enough to cross the chunk threshold, many columns for
// RHS sharding, and duplicate-heavy columns for dedup pressure.
func parallelTestRelations() map[string]*dataset.Relation {
	return map[string]*dataset.Relation{
		"patient": patientRelation(),
		"uci":     gen.UCITable("uci", 3000, 8, false, 4, 42),
		"wide":    gen.WideSparseTuned("wide", 400, 24, 0.2, 0.2, 7),
		"weather": gen.Weather("weather", 2500, 99),
		"wide70":  wideParallelRelation(),
	}
}

// wideParallelRelation spreads a 2100-row UCI table over 70 columns, so
// agree masks take two words: one filler column is constant — a cluster
// of every row, whose early passes exceed parallelMinPairs — and the
// others are keys, which form no cluster.
func wideParallelRelation() *dataset.Relation {
	rel, _ := spreadRelation(gen.UCITable("uci", 2100, 6, false, 3, 11), 70, func(row, k int) string {
		if k == 0 {
			return "k"
		}
		return fmt.Sprint(row)
	})
	return rel
}

// TestParallelDeterminism is the engine's core contract: for every worker
// count the FD output, the agree-set census, the cover sizes, and the pair
// count are identical to the sequential path, in ExhaustWindows mode.
func TestParallelDeterminism(t *testing.T) {
	for name, rel := range parallelTestRelations() {
		enc := preprocess.Encode(rel)
		opt := DefaultOptions()
		opt.ExhaustWindows = true
		opt.Workers = 1
		want, wantStats := DiscoverEncoded(enc, opt)
		for _, workers := range []int{2, 3, 4, 8} {
			opt.Workers = workers
			got, gotStats := DiscoverEncoded(enc, opt)
			if !want.Equal(got) {
				t.Errorf("%s: workers=%d FD set differs from sequential", name, workers)
			}
			if wantStats.AgreeSets != gotStats.AgreeSets {
				t.Errorf("%s: workers=%d AgreeSets = %d, want %d", name, workers, gotStats.AgreeSets, wantStats.AgreeSets)
			}
			if wantStats.NcoverSize != gotStats.NcoverSize {
				t.Errorf("%s: workers=%d NcoverSize = %d, want %d", name, workers, gotStats.NcoverSize, wantStats.NcoverSize)
			}
			if wantStats.PairsCompared != gotStats.PairsCompared {
				t.Errorf("%s: workers=%d PairsCompared = %d, want %d", name, workers, gotStats.PairsCompared, wantStats.PairsCompared)
			}
			if wantStats.PcoverSize != gotStats.PcoverSize {
				t.Errorf("%s: workers=%d PcoverSize = %d, want %d", name, workers, gotStats.PcoverSize, wantStats.PcoverSize)
			}
		}
	}
}

// TestParallelDeterminismApproximate covers the default (capa-parking)
// mode too: the double cycle takes data-dependent decisions from capa
// accounting, so identical output here means the parallel merge preserves
// the exact accounting, not just the final cover.
func TestParallelDeterminismApproximate(t *testing.T) {
	for name, rel := range parallelTestRelations() {
		enc := preprocess.Encode(rel)
		opt := DefaultOptions()
		opt.Workers = 1
		want, wantStats := DiscoverEncoded(enc, opt)
		opt.Workers = 4
		got, gotStats := DiscoverEncoded(enc, opt)
		if !want.Equal(got) {
			t.Errorf("%s: approximate-mode FD set differs between workers=1 and workers=4", name)
		}
		if wantStats.PairsCompared != gotStats.PairsCompared || wantStats.AgreeSets != gotStats.AgreeSets {
			t.Errorf("%s: approximate-mode stats differ: pairs %d vs %d, agreeSets %d vs %d",
				name, wantStats.PairsCompared, gotStats.PairsCompared, wantStats.AgreeSets, gotStats.AgreeSets)
		}
	}
}

// TestSamplerParallelFoundOrder pins the stronger guarantee the merge
// relies on: not just the same agree-set *set* but the same *sequence* of
// first discoveries, which feeds capa and therefore MLFQ decisions.
func TestSamplerParallelFoundOrder(t *testing.T) {
	enc := preprocess.Encode(gen.UCITable("uci", 4000, 6, false, 3, 17))
	collect := func(workers int) []fdset.AttrSet {
		pl := pool.New(workers)
		defer pl.Close()
		s := NewSampler(enc, 6, 3)
		s.exhaustive = true
		s.SetPool(pl)
		var all []fdset.AttrSet
		for {
			all = append(all, s.Batch(1<<20)...)
			if s.queue.Len() == 0 && !s.Reseed() {
				return all
			}
		}
	}
	want := collect(1)
	got := collect(4)
	if len(want) != len(got) {
		t.Fatalf("found %d agree sets with workers=4, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("agree-set order diverges at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if len(want) == 0 {
		t.Fatal("no agree sets sampled")
	}
}

// TestSamplerParallelQuotaResume crosses the chunk threshold with a small
// batch quota so parallel passes are interrupted and resumed, which must
// not change coverage.
func TestSamplerParallelQuotaResume(t *testing.T) {
	enc := preprocess.Encode(gen.UCITable("uci", 3000, 5, false, 3, 5))
	pl := pool.New(4)
	defer pl.Close()
	collect := func(quota int, p *pool.Pool) map[fdset.AttrSet]bool {
		s := NewSampler(enc, 6, 3)
		s.exhaustive = true
		s.SetPool(p)
		out := map[fdset.AttrSet]bool{}
		for {
			for _, a := range s.Batch(quota) {
				out[a] = true
			}
			if s.queue.Len() == 0 && !s.Reseed() {
				return out
			}
		}
	}
	want := collect(1<<20, nil)
	got := collect(2500, pl) // quota chops passes mid-sweep
	if len(want) != len(got) {
		t.Fatalf("coverage %d agree sets with interrupted parallel passes, want %d", len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Errorf("missing agree set %v", a)
		}
	}
}

// TestIncrementalParallelDeterminism runs the incremental path with and
// without workers over identical appends.
func TestIncrementalParallelDeterminism(t *testing.T) {
	rel := gen.UCITable("uci", 2400, 8, false, 4, 3)
	wide := wideParallelRelation()
	shapes := map[string]struct {
		attrs   []string
		batches [][][]string
	}{
		"uci": {rel.Attrs, [][][]string{rel.Rows[:800], rel.Rows[800:1600], rel.Rows[1600:]}},
		// The bootstrap's parallel passes tally witnesses on two-word masks.
		"wide70": {wide.Attrs, [][][]string{wide.Rows, wide.Rows[:40]}},
	}
	for name, sh := range shapes {
		run := func(workers int) *fdset.Set {
			opt := DefaultOptions()
			opt.ExhaustWindows = true
			opt.Workers = workers
			inc, err := NewIncremental("blocks", sh.attrs, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range sh.batches {
				if _, err := inc.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			return inc.FDs()
		}
		if want, got := run(1), run(4); !want.Equal(got) {
			t.Errorf("%s: incremental FD set differs between workers=1 and workers=4", name)
		}
	}
}

// TestDeltaScanParallelBatchDeterminism forces the parallel delta scan —
// a chunk size far below the base size, so every mutation sweep spans
// many chunks — and replays one seeded mutation sequence at several
// worker counts, on both the ≤ 64-column word path and the wide path.
// Every committed version must yield the identical FD set (workers=1
// takes the sequential sweep, so this pins parallel ≡ sequential), and
// the word shape's final result must match the brute-force oracle on the
// surviving rows.
func TestDeltaScanParallelBatchDeterminism(t *testing.T) {
	shapes := map[string]*dataset.Relation{
		"word": gen.UCITable("word", 400, 6, false, 4, 17),
		// Sparse and key-heavy: dense wide shapes make every batch rebuild
		// huge per-RHS covers, which is inversion cost, not scan cost.
		"wide": gen.WideSparseTuned("wide", 100, 65, 0.05, 0.5, 13),
	}
	for name, rel := range shapes {
		t.Run(name, func(t *testing.T) {
			run := func(workers int) ([]*fdset.Set, *mutationModel) {
				r := rand.New(rand.NewSource(331))
				m := &mutationModel{attrs: rel.Attrs}
				opt := DefaultOptions()
				opt.ExhaustWindows = true
				opt.Workers = workers
				inc, err := NewIncremental(rel.Name, rel.Attrs, opt)
				if err != nil {
					t.Fatal(err)
				}
				inc.deltaChunk = 32
				m.append(rel.Rows)
				if _, err := inc.Append(rel.Rows); err != nil {
					t.Fatal(err)
				}
				var perBatch []*fdset.Set
				for bi := 0; bi < 4; bi++ {
					if _, err := inc.Apply(randomBatch(r, m, 3)); err != nil {
						t.Fatalf("workers=%d batch %d: %v", workers, bi, err)
					}
					perBatch = append(perBatch, inc.FDs())
				}
				return perBatch, m
			}
			want, m := run(1)
			for _, workers := range []int{2, 4} {
				got, _ := run(workers)
				for bi := range want {
					if !got[bi].Equal(want[bi]) {
						t.Fatalf("workers=%d batch %d FD set differs from sequential:\ngot  %v\nwant %v",
							workers, bi, got[bi].Slice(), want[bi].Slice())
					}
				}
			}
			if len(rel.Attrs) <= naive.MaxCols {
				final, oracle := want[len(want)-1], naive.Discover(m.relation(t))
				if !final.Equal(oracle) {
					t.Fatalf("final cover diverged from oracle:\ngot  %v\nwant %v", final.Slice(), oracle.Slice())
				}
			}
		})
	}
}
