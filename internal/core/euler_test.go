package core

import (
	"math/rand"
	"runtime"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/naive"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
)

// exhaustiveOptions force single-batch full coverage on small relations so
// the approximate algorithm becomes exact and comparable to the oracle.
func exhaustiveOptions() Options {
	o := DefaultOptions()
	o.ThNcover, o.ThPcover = 0, 0
	o.ExhaustWindows = true
	return o
}

func TestDiscoverPatientExact(t *testing.T) {
	rel := patientRelation()
	got, stats, err := Discover(rel, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(rel)
	if !got.Equal(want) {
		t.Fatalf("EulerFD:\n%v\nwant:\n%v", got.Slice(), want.Slice())
	}
	if stats.Rows != 9 || stats.Cols != 5 || stats.PcoverSize != want.Len() {
		t.Errorf("stats wrong: %+v", stats)
	}
	if stats.String() == "" {
		t.Error("Stats.String empty")
	}
}

func TestDiscoverPaperExamples(t *testing.T) {
	got, _, err := Discover(patientRelation(), exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	// AB → M is a minimal FD (Example 3).
	if !got.Contains(fdset.NewFD([]int{1, 2}, 4)) {
		t.Error("missing AB -> M")
	}
	// G → M is a non-FD (Example 1); NG → M is non-minimal.
	if got.Contains(fdset.NewFD([]int{3}, 4)) || got.Contains(fdset.NewFD([]int{0, 3}, 4)) {
		t.Error("invalid or non-minimal FD present")
	}
}

func TestDiscoverValidatesInput(t *testing.T) {
	bad := &dataset.Relation{Attrs: []string{"A"}, Rows: [][]string{{"1", "2"}}}
	if _, _, err := Discover(bad, DefaultOptions()); err == nil {
		t.Error("malformed relation accepted")
	}
}

func TestDiscoverDegenerateRelations(t *testing.T) {
	cases := []struct {
		name string
		rel  *dataset.Relation
	}{
		{"empty rows", dataset.MustNew("e", []string{"A", "B"}, nil)},
		{"one row", dataset.MustNew("o", []string{"A", "B"}, [][]string{{"1", "2"}})},
		{"identical rows", dataset.MustNew("i", []string{"A", "B"}, [][]string{{"1", "2"}, {"1", "2"}, {"1", "2"}})},
		{"all distinct", dataset.MustNew("d", []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}, {"5", "6"}})},
		{"single col", dataset.MustNew("s", []string{"A"}, [][]string{{"1"}, {"1"}, {"2"}})},
		{"no cols", dataset.MustNew("n", nil, nil)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, _, err := Discover(c.rel, exhaustiveOptions())
			if err != nil {
				t.Fatal(err)
			}
			if c.rel.NumCols() == 0 {
				if got.Len() != 0 {
					t.Fatalf("no-column relation returned %v", got.Slice())
				}
				return
			}
			want := naive.Discover(c.rel)
			if !got.Equal(want) {
				t.Fatalf("got %v, want %v", got.Slice(), want.Slice())
			}
		})
	}
}

func randomRelation(r *rand.Rand, rows, cols, domain int) *dataset.Relation {
	attrs := make([]string, cols)
	for i := range attrs {
		attrs[i] = string(rune('A' + i))
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for j := range row {
			row[j] = string(rune('a' + r.Intn(domain)))
		}
		data[i] = row
	}
	return dataset.MustNew("rand", attrs, data)
}

func TestDiscoverExhaustiveMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 60; iter++ {
		rel := randomRelation(r, 2+r.Intn(25), 2+r.Intn(5), 1+r.Intn(4))
		got, _, err := Discover(rel, exhaustiveOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Discover(rel)
		if !got.Equal(want) {
			t.Fatalf("iter %d rel %v:\ngot %v\nwant %v", iter, rel.Rows, got.Slice(), want.Slice())
		}
	}
}

// TestDiscoverDefaultInvariants checks the structural guarantees that hold
// even when sampling is cut short by the default thresholds:
//  1. every output FD is non-trivial;
//  2. the output is an antichain per RHS (mutually minimal);
//  3. every true minimal FD has a generalization in the output (errors are
//     only ever over-general, never missing).
func TestDiscoverDefaultInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for iter := 0; iter < 30; iter++ {
		rel := randomRelation(r, 5+r.Intn(60), 2+r.Intn(6), 1+r.Intn(5))
		got, _, err := Discover(rel, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		fds := got.Slice()
		for i, f := range fds {
			if f.IsTrivial() {
				t.Fatalf("trivial output %v", f)
			}
			for j, g := range fds {
				if i != j && g.RHS == f.RHS && g.LHS.IsProperSubsetOf(f.LHS) {
					t.Fatalf("output not an antichain: %v ⊂ %v", g, f)
				}
			}
		}
		truth := naive.Discover(rel)
		truth.ForEach(func(tf fdset.FD) {
			ok := false
			got.ForEach(func(gf fdset.FD) {
				if gf.Generalizes(tf) {
					ok = true
				}
			})
			if !ok {
				t.Fatalf("true FD %v has no generalization in output", tf)
			}
		})
	}
}

func TestDiscoverDefaultAccuracyOnStructuredData(t *testing.T) {
	// A relation with planted FDs: C = f(A,B), D = g(A). Default options
	// must recover the exact result here — plenty of violating pairs.
	r := rand.New(rand.NewSource(31))
	rows := make([][]string, 300)
	for i := range rows {
		a, b := r.Intn(12), r.Intn(12)
		c := (a*31 + b*7) % 17
		d := a % 5
		e := r.Intn(40)
		rows[i] = []string{
			string(rune('a' + a)), string(rune('a' + b)),
			string(rune('a' + c)), string(rune('a' + d)),
			string(rune('0'+e%10)) + string(rune('0'+e/10)),
		}
	}
	rel := dataset.MustNew("planted", []string{"A", "B", "C", "D", "E"}, rows)
	got, _, err := Discover(rel, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(rel)
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
}

func TestDiscoverEncodedDirect(t *testing.T) {
	enc := preprocess.Encode(patientRelation())
	got, stats := DiscoverEncoded(enc, exhaustiveOptions())
	want := naive.Discover(patientRelation())
	if !got.Equal(want) {
		t.Fatal("DiscoverEncoded diverges from Discover")
	}
	if stats.PairsCompared == 0 || stats.NcoverSize == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestGrowthRate(t *testing.T) {
	if growthRate(0, 0) != 0 || growthRate(0, 10) != 0 {
		t.Error("no additions must be zero growth")
	}
	if growthRate(5, 0) != 1 {
		t.Error("growth onto empty cover should saturate at 1")
	}
	if growthRate(5, 100) != 0.05 {
		t.Error("ratio wrong")
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.NumQueues != 6 || o.Workers != runtime.GOMAXPROCS(0) {
		t.Errorf("defaults wrong: %+v", o)
	}
	o = Options{NumQueues: 2, Workers: 3}.withDefaults()
	if o.NumQueues != 2 || o.Workers != 3 {
		t.Errorf("explicit fields overridden: %+v", o)
	}
}

// TestDefaultWorkersFollowGOMAXPROCS pins that the default worker count
// is what the Go scheduler can run at once, not the machine's core count:
// under GOMAXPROCS=1 (a CPU quota) it resolves to the sequential nil pool.
func TestDefaultWorkersFollowGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	o := Options{}.withDefaults()
	if o.Workers != 1 {
		t.Fatalf("Workers = %d under GOMAXPROCS=1, want 1", o.Workers)
	}
	if pool.New(o.Workers) != nil {
		t.Fatal("the default started a worker pool under GOMAXPROCS=1")
	}
}

// TestSamplingEfficiencyVsExhaustive verifies the point of the adaptive
// sampler: on structured data the default configuration reaches the exact
// result while comparing far fewer tuple pairs than exhaustive coverage.
func TestSamplingEfficiencyVsExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	rows := make([][]string, 2000)
	for i := range rows {
		a, b := r.Intn(8), r.Intn(8)
		rows[i] = []string{
			string(rune('a' + a)),
			string(rune('a' + b)),
			string(rune('a' + (a*3+b)%11)), // derived: {A,B} → C
			string(rune('a' + r.Intn(6))),
		}
	}
	rel := dataset.MustNew("structured", []string{"A", "B", "C", "D"}, rows)
	enc := preprocess.Encode(rel)

	def, defStats := DiscoverEncoded(enc, DefaultOptions())
	ex := DefaultOptions()
	ex.ExhaustWindows = true
	ex.ThNcover, ex.ThPcover = 0, 0
	exact, exStats := DiscoverEncoded(enc, ex)

	if !def.Equal(exact) {
		t.Fatalf("default output differs from exhaustive:\n%v\nvs\n%v", def.Slice(), exact.Slice())
	}
	if defStats.PairsCompared*5 > exStats.PairsCompared {
		t.Errorf("adaptive sampling compared %d pairs, exhaustive %d — expected at least 5x savings",
			defStats.PairsCompared, exStats.PairsCompared)
	}
}

func TestDiscoverParallelWorkersSameResult(t *testing.T) {
	r := rand.New(rand.NewSource(137))
	rel := randomRelation(r, 80, 6, 3)
	enc := preprocess.Encode(rel)
	seq, _ := DiscoverEncoded(enc, DefaultOptions())
	opt := DefaultOptions()
	opt.Workers = 4
	par, _ := DiscoverEncoded(enc, opt)
	if !seq.Equal(par) {
		t.Fatalf("parallel run diverged:\n%v\nvs\n%v", seq.Slice(), par.Slice())
	}
}
