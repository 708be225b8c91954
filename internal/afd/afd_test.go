package afd_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"eulerfd/internal/afd"
	"eulerfd/internal/algo"
	"eulerfd/internal/dataset"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// naiveG3 recomputes g3 for lhs → rhs straight from the label matrix:
// group rows by their full LHS projection in a map keyed by the
// projection string, keep each group's plurality RHS value, and divide.
// No partitions, no shared code with the kernel under test.
func naiveG3(enc *preprocess.Encoded, lhs fdset.AttrSet, rhs int) float64 {
	if enc.NumRows == 0 {
		return 0
	}
	groups := make(map[string]map[int32]int)
	for r := 0; r < enc.NumRows; r++ {
		key := ""
		lhs.ForEach(func(a int) bool {
			key += strconv.Itoa(int(enc.Lane(a).At(int32(r)))) + ","
			return true
		})
		g := groups[key]
		if g == nil {
			g = make(map[int32]int)
			groups[key] = g
		}
		g[enc.Lane(rhs).At(int32(r))]++
	}
	removed := 0
	for _, g := range groups {
		size, best := 0, 0
		for _, c := range g {
			size += c
			if c > best {
				best = c
			}
		}
		removed += size - best
	}
	return float64(removed) / float64(enc.NumRows)
}

// quadraticG3 is the fully naive O(n²) variant: groups are formed by
// pairwise row comparison with no hashing at all.
func quadraticG3(enc *preprocess.Encoded, lhs fdset.AttrSet, rhs int) float64 {
	if enc.NumRows == 0 {
		return 0
	}
	sameOn := func(u, v int) bool {
		same := true
		lhs.ForEach(func(a int) bool {
			if enc.Lane(a).At(int32(u)) != enc.Lane(a).At(int32(v)) {
				same = false
				return false
			}
			return true
		})
		return same
	}
	assigned := make([]bool, enc.NumRows)
	removed := 0
	for u := 0; u < enc.NumRows; u++ {
		if assigned[u] {
			continue
		}
		counts := map[int32]int{enc.Lane(rhs).At(int32(u)): 1}
		size := 1
		for v := u + 1; v < enc.NumRows; v++ {
			if !assigned[v] && sameOn(u, v) {
				assigned[v] = true
				counts[enc.Lane(rhs).At(int32(v))]++
				size++
			}
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		removed += size - best
	}
	return float64(removed) / float64(enc.NumRows)
}

// TestG3MatchesNaiveAllRegistry checks the partition-based g3 kernel
// against the independent map-grouping counter over every single-attribute
// dependency of every registry corpus (acceptance criterion: exact match,
// these are float divisions of identical integers).
func TestG3MatchesNaiveAllRegistry(t *testing.T) {
	for _, d := range datasets.All() {
		if testing.Short() && d.Rows*d.Cols > 100000 {
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			enc := preprocess.Encode(d.Build())
			s := afd.NewScorer(enc, 0)
			for x := range enc.Attrs {
				for a := range enc.Attrs {
					if x == a {
						continue
					}
					lhs := fdset.NewAttrSet(x)
					got := s.Score(afd.G3, lhs, a)
					want := naiveG3(enc, lhs, a)
					if got != want {
						t.Fatalf("%s: g3(%d -> %d) = %v, naive = %v", d.Name, x, a, got, want)
					}
				}
			}
		})
	}
}

// TestG3MatchesQuadraticNaiveSmall cross-checks multi-attribute LHS
// scores against the O(n²) pairwise counter on the small corpora.
func TestG3MatchesQuadraticNaiveSmall(t *testing.T) {
	for _, name := range []string{"iris", "balance-scale", "bridges", "echocardiogram", "breast-cancer"} {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		enc := preprocess.Encode(d.Build())
		s := afd.NewScorer(enc, 0)
		r := rand.New(rand.NewSource(int64(len(name))))
		for trial := 0; trial < 25; trial++ {
			var lhs fdset.AttrSet
			for a := 0; a < d.Cols; a++ {
				if r.Intn(3) == 0 {
					lhs.Add(a)
				}
			}
			rhs := r.Intn(d.Cols)
			for lhs.Has(rhs) {
				rhs = (rhs + 1) % d.Cols
			}
			if lhs.Count() == 0 {
				lhs.Add((rhs + 1) % d.Cols)
			}
			got := s.Score(afd.G3, lhs, rhs)
			want := quadraticG3(enc, lhs, rhs)
			if got != want {
				t.Fatalf("%s: g3(%v -> %d) = %v, quadratic naive = %v", name, lhs, rhs, got, want)
			}
		}
	}
}

// randomRelation builds a seeded relation with the given shape and
// per-column cardinality.
func randomRelation(r *rand.Rand, rows, cols, card int) *dataset.Relation {
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for j := range row {
			row[j] = strconv.Itoa(r.Intn(card))
		}
		data[i] = row
	}
	attrs := make([]string, cols)
	for j := range attrs {
		attrs[j] = fmt.Sprintf("c%d", j)
	}
	rel, err := dataset.New("random", attrs, data)
	if err != nil {
		panic(err)
	}
	return rel
}

// TestMeasureMonotonicity property-tests the anti-monotone measures:
// adding an attribute to the LHS never increases g3 or g1 error. pdep
// and τ are checked for range only (their error is also non-increasing
// under refinement, but the package does not rely on it).
func TestMeasureMonotonicity(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		cols := 4 + r.Intn(3)
		enc := preprocess.Encode(randomRelation(r, 30+r.Intn(70), cols, 2+r.Intn(3)))
		s := afd.NewScorer(enc, 0)
		for probe := 0; probe < 20; probe++ {
			var x fdset.AttrSet
			for a := 0; a < cols; a++ {
				if r.Intn(2) == 0 {
					x.Add(a)
				}
			}
			rhs := r.Intn(cols)
			x.Remove(rhs)
			add := r.Intn(cols)
			if add == rhs || x.Has(add) {
				continue
			}
			y := x.With(add)
			for _, m := range []afd.Measure{afd.G3, afd.G1} {
				sx, sy := s.Score(m, x, rhs), s.Score(m, y, rhs)
				if sy > sx {
					t.Fatalf("%s not anti-monotone: score(%v -> %d) = %v < score(%v -> %d) = %v",
						m, x, rhs, sx, y, rhs, sy)
				}
			}
			for _, m := range afd.Measures() {
				if v := s.Score(m, x, rhs); v < 0 || v > 1 {
					t.Fatalf("%s score %v outside [0, 1]", m, v)
				}
			}
		}
	}
}

// TestDiscoverZeroMatchesExactOracle is the acceptance criterion:
// threshold discovery at eps = 0 must return exactly the minimal cover
// of the exact FDs (TANE) on the regression-suite registry corpora.
func TestDiscoverZeroMatchesExactOracle(t *testing.T) {
	names := []string{"iris", "balance-scale", "bridges", "echocardiogram", "breast-cancer"}
	if !testing.Short() {
		names = append(names, "chess", "abalone", "nursery")
	}
	for _, name := range names {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			enc := preprocess.Encode(d.Build())
			want, _, err := algo.RunEncoded(context.Background(), algo.TANE, enc, algo.Tuning{})
			if err != nil {
				t.Fatal(err)
			}
			s := afd.NewScorer(enc, 1024)
			scored, err := s.Discover(context.Background(), afd.G3, 0)
			if err != nil {
				t.Fatal(err)
			}
			got := fdset.NewSet()
			for _, sf := range scored {
				if sf.Score != 0 {
					t.Fatalf("eps=0 result %v has nonzero score", sf)
				}
				got.Add(sf.FD)
			}
			if !got.Equal(want) {
				t.Fatalf("Discover(0) = %d FDs, oracle = %d FDs\ngot:  %v\nwant: %v",
					got.Len(), want.Len(), got.Slice(), want.Slice())
			}
		})
	}
}

// TestDiscoverThresholdMinimal checks the eps > 0 contract on a real
// corpus: every result is within budget, scored correctly, non-trivial,
// and minimal (no result generalizes another), and the slice is in
// canonical order.
func TestDiscoverThresholdMinimal(t *testing.T) {
	d, err := datasets.ByName("bridges")
	if err != nil {
		t.Fatal(err)
	}
	enc := preprocess.Encode(d.Build())
	s := afd.NewScorer(enc, 0)
	const eps = 0.1
	out, err := s.Discover(context.Background(), afd.G3, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no AFDs at eps = 0.1 on bridges")
	}
	for i, sf := range out {
		if sf.Score > eps {
			t.Errorf("%v exceeds eps", sf)
		}
		if sf.FD.IsTrivial() {
			t.Errorf("trivial result %v", sf)
		}
		if got := s.Score(afd.G3, sf.FD.LHS, sf.FD.RHS); got != sf.Score {
			t.Errorf("%v score mismatch: re-scored %v", sf, got)
		}
		if i > 0 && !fdset.Less(out[i-1].FD, sf.FD) {
			t.Errorf("output not in canonical order at %d: %v !< %v", i, out[i-1].FD, sf.FD)
		}
		for j, other := range out {
			if i != j && sf.FD != other.FD && sf.FD.Generalizes(other.FD) {
				t.Errorf("non-minimal result: %v generalizes %v", sf.FD, other.FD)
			}
		}
	}
}

func TestDiscoverRejectsNonAntiMonotone(t *testing.T) {
	enc := preprocess.Encode(randomRelation(rand.New(rand.NewSource(1)), 10, 3, 2))
	s := afd.NewScorer(enc, 0)
	for _, m := range []afd.Measure{afd.Pdep, afd.Tau} {
		if _, err := s.Discover(context.Background(), m, 0.1); err == nil {
			t.Errorf("Discover accepted non-anti-monotone measure %s", m)
		}
	}
	if _, err := s.Discover(context.Background(), afd.Measure("bogus"), 0.1); err == nil {
		t.Error("Discover accepted an invalid measure")
	}
	if _, err := s.Discover(context.Background(), afd.G3, -0.5); err == nil {
		t.Error("Discover accepted a negative epsilon")
	}
}

func TestDiscoverCancellation(t *testing.T) {
	enc := preprocess.Encode(randomRelation(rand.New(rand.NewSource(2)), 50, 6, 2))
	s := afd.NewScorer(enc, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Discover(ctx, afd.G3, 0.5); err != context.Canceled {
		t.Errorf("cancelled Discover returned %v", err)
	}
	if _, err := s.Rank(ctx, afd.G3, []fdset.FD{fdset.NewFD([]int{0}, 1)}, 5); err != context.Canceled {
		t.Errorf("cancelled Rank returned %v", err)
	}
}

// TestTopKDeterministic runs top-k twice end to end on a registry corpus
// and demands bit-identical rankings — the determinism acceptance
// criterion (the CI race job runs this file under -race as well).
func TestTopKDeterministic(t *testing.T) {
	d, err := datasets.ByName("iris")
	if err != nil {
		t.Fatal(err)
	}
	opt := afd.DefaultOptions()
	opt.TopK = 8
	for _, m := range afd.Measures() {
		opt.Measure = m
		var prev []fdset.ScoredFD
		for run := 0; run < 2; run++ {
			enc := preprocess.Encode(d.Build())
			got, stats, err := afd.TopK(context.Background(), enc, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || len(got) > opt.TopK {
				t.Fatalf("%s: |topk| = %d with k = %d", m, len(got), opt.TopK)
			}
			if stats.Results != len(got) || stats.Candidates == 0 {
				t.Fatalf("%s: inconsistent stats %+v", m, stats)
			}
			for i := 1; i < len(got); i++ {
				if got[i].Score < got[i-1].Score {
					t.Fatalf("%s: ranking not sorted by error: %v after %v", m, got[i], got[i-1])
				}
				if got[i].Score == got[i-1].Score && !fdset.Less(got[i-1].FD, got[i].FD) {
					t.Fatalf("%s: score tie not in canonical order: %v after %v", m, got[i], got[i-1])
				}
			}
			if run > 0 && !reflect.DeepEqual(prev, got) {
				t.Fatalf("%s: ranking differs across runs:\n%v\n%v", m, prev, got)
			}
			prev = got
		}
	}
}

// TestRankTieBreak forces score ties and checks the canonical order wins.
func TestRankTieBreak(t *testing.T) {
	// Column 0 is a key: every {0}-seeded candidate scores 0.
	rows := [][]string{{"a", "x", "p"}, {"b", "x", "p"}, {"c", "y", "q"}, {"d", "y", "q"}}
	rel, err := dataset.New("ties", []string{"k", "u", "v"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	enc := preprocess.Encode(rel)
	s := afd.NewScorer(enc, 0)
	seeds := []fdset.FD{fdset.NewFD([]int{0}, 2), fdset.NewFD([]int{0}, 1), fdset.NewFD([]int{1}, 2)}
	got, err := s.Rank(context.Background(), afd.G3, seeds, 3)
	if err != nil {
		t.Fatal(err)
	}
	// All three seeds hold exactly (score 0): canonical order is the tie-break.
	want := []fdset.ScoredFD{
		{FD: fdset.NewFD([]int{0}, 1), Score: 0},
		{FD: fdset.NewFD([]int{0}, 2), Score: 0},
		{FD: fdset.NewFD([]int{1}, 2), Score: 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Rank = %v, want %v", got, want)
	}
}

// TestRankExpandsGeneralizations verifies the candidate pool includes
// one-attribute generalizations of the seeds.
func TestRankExpandsGeneralizations(t *testing.T) {
	// u -> v holds; seed only the specialization {k,u} -> v and expect
	// the generalization {u} -> v to outrank it (same score, smaller LHS
	// ranks earlier canonically... both score 0; {u} has fewer attrs).
	rows := [][]string{{"a", "x", "p"}, {"b", "x", "p"}, {"c", "y", "q"}, {"d", "y", "q"}}
	rel, err := dataset.New("gen", []string{"k", "u", "v"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	enc := preprocess.Encode(rel)
	s := afd.NewScorer(enc, 0)
	got, err := s.Rank(context.Background(), afd.G3, []fdset.FD{fdset.NewFD([]int{0, 1}, 2)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("Rank returned %d results", len(got))
	}
	if got[0].FD != fdset.NewFD([]int{0}, 2) || got[1].FD != fdset.NewFD([]int{1}, 2) {
		t.Fatalf("expected dropped-attribute generalizations first, got %v", got)
	}
}

func TestRankZeroK(t *testing.T) {
	enc := preprocess.Encode(randomRelation(rand.New(rand.NewSource(3)), 10, 3, 2))
	s := afd.NewScorer(enc, 0)
	got, err := s.Rank(context.Background(), afd.G3, []fdset.FD{fdset.NewFD([]int{0}, 1)}, 0)
	if err != nil || got != nil {
		t.Errorf("Rank with k = 0 = (%v, %v), want (nil, nil)", got, err)
	}
}

func TestParseMeasure(t *testing.T) {
	cases := map[string]afd.Measure{
		"": afd.G3, "g3": afd.G3, "G3": afd.G3, "g1": afd.G1,
		"pdep": afd.Pdep, "PDEP": afd.Pdep, "tau": afd.Tau, "τ": afd.Tau,
	}
	for in, want := range cases {
		got, err := afd.ParseMeasure(in)
		if err != nil || got != want {
			t.Errorf("ParseMeasure(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := afd.ParseMeasure("g2"); err == nil {
		t.Error("ParseMeasure accepted g2")
	}
}

func TestOptionsValidate(t *testing.T) {
	ok := afd.DefaultOptions()
	if err := ok.Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	for name, mut := range map[string]func(*afd.Options){
		"measure": func(o *afd.Options) { o.Measure = "g2" },
		"eps-neg": func(o *afd.Options) { o.Epsilon = -0.1 },
		"eps-big": func(o *afd.Options) { o.Epsilon = 1.5 },
		"topk":    func(o *afd.Options) { o.TopK = -1 },
		"cache":   func(o *afd.Options) { o.CacheSize = -1 },
		"euler":   func(o *afd.Options) { o.Euler.NumQueues = -1 },
	} {
		o := afd.DefaultOptions()
		mut(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, o)
		}
	}
	// Invalid Euler options are tolerated in threshold mode (unused).
	o := afd.DefaultOptions()
	o.TopK = 0
	o.Euler.NumQueues = -1
	if err := o.Validate(); err != nil {
		t.Errorf("threshold mode rejected unused Euler options: %v", err)
	}
}

func TestThresholdEndToEnd(t *testing.T) {
	d, err := datasets.ByName("iris")
	if err != nil {
		t.Fatal(err)
	}
	enc := preprocess.Encode(d.Build())
	opt := afd.DefaultOptions()
	opt.TopK = 0
	opt.Epsilon = 0.02
	fds, stats, err := afd.Threshold(context.Background(), enc, opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Mode != "threshold" || stats.Measure != "g3" || stats.Results != len(fds) {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Candidates == 0 {
		t.Error("no candidates counted")
	}
}
