package afd_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"eulerfd/internal/afd"
	"eulerfd/internal/core"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
)

// oracleCandidate is one expanded Rank candidate with the tallies of its
// canonically computed partition.
type oracleCandidate struct {
	fd fdset.FD
	mc preprocess.MeasureCounts
}

// oracleCandidates expands seeds the way Rank documents it — every seed
// and every one-attribute generalization, trivial candidates and
// duplicates dropped — and tallies each candidate on its own
// enc.PartitionOf, sharing nothing with Rank's prefix walk.
func oracleCandidates(enc *preprocess.Encoded, seeds []fdset.FD) []oracleCandidate {
	seen := make(map[fdset.FD]bool)
	var out []oracleCandidate
	add := func(f fdset.FD) {
		if f.IsTrivial() || seen[f] {
			return
		}
		seen[f] = true
		out = append(out, oracleCandidate{fd: f, mc: enc.CountViolations(enc.PartitionOf(f.LHS), f.RHS)})
	}
	for _, f := range seeds {
		add(f)
		f.LHS.ForEach(func(a int) bool {
			add(fdset.FD{LHS: f.LHS.Without(a), RHS: f.RHS})
			return true
		})
	}
	return out
}

// oracleRanking scores every oracle candidate under m and sorts the
// whole pool by (score, canonical FD): the full ranking Rank must return
// when k covers every candidate.
func oracleRanking(s *afd.Scorer, enc *preprocess.Encoded, cands []oracleCandidate, m afd.Measure) []fdset.ScoredFD {
	out := make([]fdset.ScoredFD, len(cands))
	for i, c := range cands {
		out[i].FD = c.fd
		if enc.NumRows > 0 {
			out[i].Score = s.ScoreCounts(m, c.mc, c.fd.RHS)
		}
	}
	fdset.SortScoredFDsByScore(out)
	return out
}

// rankingDiff describes how ranking got departs from want, or returns ""
// when the two are identical.
func rankingDiff(got, want []fdset.ScoredFD) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d entries, want %d", len(got), len(want))
	}
	first, n := -1, 0
	for i := range got {
		if got[i] != want[i] {
			if first < 0 {
				first = i
			}
			n++
		}
	}
	if n == 0 {
		return ""
	}
	return fmt.Sprintf("%d of %d entries differ, first at %d: got %v, want %v", n, len(got), first, got[first], want[first])
}

// TestRankMatchesCanonicalScoring pins Rank's prefix walk to the
// canonical oracle bit for bit: each measure's ranking over a registry
// corpus's discovered cover must equal the first k entries of the one
// built from per-candidate enc.PartitionOf partitions — the float low
// bits of pdep and τ included, which follow cluster order. With k
// covering every candidate the heap never fills and every candidate is
// scored; at small k the branch-and-bound cut runs, and under redundancy
// it must fire on the corpora listed in boundFires.
func TestRankMatchesCanonicalScoring(t *testing.T) {
	names := []string{"iris", "balance-scale", "chess", "abalone", "nursery", "breast-cancer",
		"bridges", "echocardiogram", "ncvoter", "hepatitis"}
	if !testing.Short() {
		names = append(names, "adult", "horse")
	}
	boundFires := map[string]bool{"iris": true, "abalone": true, "breast-cancer": true, "bridges": true,
		"echocardiogram": true, "ncvoter": true, "hepatitis": true, "adult": true, "horse": true}
	for _, name := range names {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			enc := preprocess.Encode(d.Build())
			cover, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
			seeds := cover.Slice()
			cands := oracleCandidates(enc, seeds)
			for _, m := range afd.Measures() {
				want := oracleRanking(afd.NewScorer(enc, 0), enc, cands, m)
				for _, k := range []int{1, 2, 5, 20, len(cands) + 1} {
					s := afd.NewScorer(enc, 0)
					got, err := s.Rank(context.Background(), m, seeds, k)
					if err != nil {
						t.Fatal(err)
					}
					if diff := rankingDiff(got, want[:min(k, len(want))]); diff != "" {
						t.Fatalf("%s, k=%d: Rank departs from the canonical oracle: %s", m, k, diff)
					}
					switch {
					case k > len(cands) && s.Scored() != len(cands):
						t.Fatalf("%s, k=%d: scored %d candidates, oracle has %d", m, k, s.Scored(), len(cands))
					case m == afd.Redundancy && k == 5 && boundFires[name] && s.Scored() >= len(cands):
						t.Fatalf("%s, k=%d: scored all %d candidates; the bound never fired", m, k, len(cands))
					}
				}
			}
		})
	}
}

// TestRankDeterministicAcrossScorerHistory checks that a ranking is a
// function of the snapshot alone. The shared partition cache derives a
// partition from whichever neighbor it holds, and pdep/τ sum per-cluster
// quotients in cluster order, so a Rank served from that cache would
// change in its last bits with whatever the scorer answered before (a
// session scorer in fdserve answers many requests). A fresh scorer, one
// that first ran threshold discovery, and two concurrent Rank calls on
// one shared scorer must all agree.
func TestRankDeterministicAcrossScorerHistory(t *testing.T) {
	d, err := datasets.ByName("echocardiogram")
	if err != nil {
		t.Fatal(err)
	}
	enc := preprocess.Encode(d.Build())
	cover, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
	seeds := cover.Slice()
	k := len(oracleCandidates(enc, seeds))
	ctx := context.Background()
	for _, m := range []afd.Measure{afd.Pdep, afd.Tau} {
		fresh, err := afd.NewScorer(enc, 0).Rank(ctx, m, seeds, k)
		if err != nil {
			t.Fatal(err)
		}

		used := afd.NewScorer(enc, 0)
		if _, err := used.Discover(ctx, afd.G3, 0.05); err != nil {
			t.Fatal(err)
		}
		afterDiscover, err := used.Rank(ctx, m, seeds, k)
		if err != nil {
			t.Fatal(err)
		}
		if diff := rankingDiff(afterDiscover, fresh); diff != "" {
			t.Fatalf("%s: ranking after Discover departs from a fresh scorer's: %s", m, diff)
		}

		var concurrent [2][]fdset.ScoredFD
		var errs [2]error
		var wg sync.WaitGroup
		for i := range concurrent {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				concurrent[i], errs[i] = used.Rank(ctx, m, seeds, k)
			}(i)
		}
		wg.Wait()
		for i := range concurrent {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if diff := rankingDiff(concurrent[i], fresh); diff != "" {
				t.Fatalf("%s: concurrent Rank %d departs from a fresh scorer's: %s", m, i, diff)
			}
		}
	}
}

// BenchmarkRankRedundancy times the redundancy ranking a quality report
// starts with: Rank over the discovered cover of a 1000×18 weather
// relation on a fresh scorer per iteration. k=5 is the report's bound,
// where the branch-and-bound cut skips most of the pool; all ranks at
// the pool size, the full walk that large-k and non-redundancy requests
// still take.
func BenchmarkRankRedundancy(b *testing.B) {
	enc := preprocess.Encode(gen.Weather("weather", 1000, 1))
	cover, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
	seeds := cover.Slice()
	ctx := context.Background()
	// An unbounded ranking returns the whole pool.
	pool, err := afd.NewScorer(enc, 0).Rank(ctx, afd.Redundancy, seeds, math.MaxInt)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		k    int
	}{{"k=5", 5}, {"all", len(pool)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := afd.NewScorer(enc, 0).Rank(ctx, afd.Redundancy, seeds, bc.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
