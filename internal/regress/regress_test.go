package regress

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eulerfd/internal/bench"
)

// quickSuite is the two fastest cells — enough to exercise the full
// record/check path without paying for the whole default suite.
func quickSuite() []Source {
	var out []Source
	for _, s := range DefaultSuite() {
		if s.Name == "iris" || s.Name == "patient" {
			out = append(out, s)
		}
	}
	return out
}

func TestRunIsDeterministic(t *testing.T) {
	suite := quickSuite()
	a := Run(suite, Config{Runs: 1}, nil)
	b := Run(suite, Config{Runs: 2}, nil)
	if len(a.Cells) != len(suite) || len(b.Cells) != len(suite) {
		t.Fatalf("cell counts: %d, %d", len(a.Cells), len(b.Cells))
	}
	// Accuracy must be bit-identical across runs and run counts; perf
	// medians may differ.
	for i := range a.Cells {
		if a.Cells[i].Accuracy != b.Cells[i].Accuracy {
			t.Errorf("%s: accuracy differs across runs:\n%+v\n%+v",
				a.Cells[i].Dataset, a.Cells[i].Accuracy, b.Cells[i].Accuracy)
		}
	}
	if a.Schema != bench.SchemaVersion {
		t.Errorf("schema = %d", a.Schema)
	}
	// The AFD cell's rendered score set is bit-identical too.
	if a.AFD == nil || b.AFD == nil {
		t.Fatal("Run produced no AFD cell")
	}
	if !reflect.DeepEqual(a.AFD, b.AFD) {
		t.Errorf("AFD cell differs across runs:\n%+v\n%+v", a.AFD, b.AFD)
	}
	if a.AFD.Dataset != afdCellCorpus || len(a.AFD.FDs) == 0 {
		t.Errorf("AFD cell = %+v", a.AFD)
	}
	// So is the ensemble cell's rendered confidence set.
	if a.Ensemble == nil || b.Ensemble == nil {
		t.Fatal("Run produced no ensemble cell")
	}
	if !reflect.DeepEqual(a.Ensemble, b.Ensemble) {
		t.Errorf("ensemble cell differs across runs:\n%+v\n%+v", a.Ensemble, b.Ensemble)
	}
	if a.Ensemble.Dataset != ensembleCellCorpus || len(a.Ensemble.FDs) == 0 {
		t.Errorf("ensemble cell = %+v", a.Ensemble)
	}
	// And the quality cell's rendered ranking.
	if a.Quality == nil || b.Quality == nil {
		t.Fatal("Run produced no quality cell")
	}
	if !reflect.DeepEqual(a.Quality, b.Quality) {
		t.Errorf("quality cell differs across runs:\n%+v\n%+v", a.Quality, b.Quality)
	}
	if a.Quality.Dataset != qualityCellCorpus || len(a.Quality.Ranked) == 0 || a.Quality.Decomposition == "" {
		t.Errorf("quality cell = %+v", a.Quality)
	}
}

// goldenCase describes one golden cell for checkGoldenDiff: set installs
// the cell, and each other func applies one drift to it. Extra lists
// further drifts of a cell's own fields.
type goldenCase struct {
	set, digit, count, key, clear func(*Baseline)
	extra                         []func(*Baseline)
}

// goldenCases is the one table of golden cells, keyed by the Field their
// findings carry.
var goldenCases = map[string]goldenCase{
	"afd": {
		set: func(b *Baseline) {
			b.AFD = &AFDCell{Dataset: "bridges", Measure: "g3", Epsilon: 0.1,
				FDs: []string{"[A] -> B score=0.000000000", "[C] -> D score=0.092592593"}}
		},
		digit: func(b *Baseline) { b.AFD.FDs[1] = "[C] -> D score=0.092592594" },
		count: func(b *Baseline) { b.AFD.FDs = b.AFD.FDs[:1] },
		key:   func(b *Baseline) { b.AFD.Epsilon = 0.2 },
		clear: func(b *Baseline) { b.AFD = nil },
	},
	"ensemble": {
		set: func(b *Baseline) {
			b.Ensemble = &EnsembleCell{Dataset: "chess", Members: 5, Seed: 42,
				FDs: []string{
					"[A] -> B conf=1.000000000 votes=5/5 g3=0.000000000 suspect=false",
					"[C] -> D conf=0.600000000 votes=3/5 g3=0.000250000 suspect=true",
				}}
		},
		digit: func(b *Baseline) {
			b.Ensemble.FDs[1] = "[C] -> D conf=0.600000001 votes=3/5 g3=0.000250000 suspect=true"
		},
		count: func(b *Baseline) { b.Ensemble.FDs = b.Ensemble.FDs[:1] },
		key:   func(b *Baseline) { b.Ensemble.Seed = 43 },
		clear: func(b *Baseline) { b.Ensemble = nil },
	},
	"incremental": {
		set: func(b *Baseline) {
			b.Incremental = &IncrementalCell{Dataset: "bridges", Version: 3, Rows: 105,
				FDs: []string{"[A] -> B", "[C D] -> E"}}
		},
		digit: func(b *Baseline) { b.Incremental.FDs[1] = "[C D] -> F" },
		count: func(b *Baseline) { b.Incremental.FDs = b.Incremental.FDs[:1] },
		key:   func(b *Baseline) { b.Incremental.Rows = 104 },
		clear: func(b *Baseline) { b.Incremental = nil },
	},
	"quality": {
		set: func(b *Baseline) {
			b.Quality = &QualityCell{Dataset: "bridges", TopK: 3,
				Ranked: []string{
					"[A] -> B score=0.812500000 redundant=13 exact=true",
					"[C] -> D score=0.400000000 redundant=6 exact=false",
				},
				ViolatingRows: 9, RepairCost: 4,
				Decomposition: "R1[A B] ⋈ R2[B C D]"}
		},
		digit: func(b *Baseline) {
			b.Quality.Ranked[1] = "[C] -> D score=0.400000001 redundant=6 exact=false"
		},
		count: func(b *Baseline) { b.Quality.Ranked = b.Quality.Ranked[:1] },
		key:   func(b *Baseline) { b.Quality.TopK = 5 },
		clear: func(b *Baseline) { b.Quality = nil },
		extra: []func(*Baseline){
			func(b *Baseline) { b.Quality.RepairCost = 5 },
			func(b *Baseline) { b.Quality.Decomposition = "BCNF" },
		},
	},
}

// checkGoldenDiff runs the exact-match gate of the named golden cell
// through the same six cases: identical cells pass, a one-digit drift, a
// count drift and an input or state drift each regress, a cell missing
// from the current run regresses, and a cell missing from the baseline
// only warns.
func checkGoldenDiff(t *testing.T, name string) {
	t.Helper()
	tc, ok := goldenCases[name]
	if !ok {
		t.Fatalf("no golden case %q", name)
	}
	fresh := func(edit func(*Baseline)) *Baseline {
		b := synthetic()
		tc.set(b)
		if edit != nil {
			edit(b)
		}
		return b
	}
	base := fresh(nil)
	if d := Diff(base, fresh(nil), DefaultThresholds()); !d.Clean() || len(d.Warnings) != 0 {
		t.Fatalf("identical cells diffed dirty: %+v %+v", d.Regressions, d.Warnings)
	}
	drifts := map[string]func(*Baseline){
		"one-digit drift":              tc.digit,
		"count drift":                  tc.count,
		"input or state drift":         tc.key,
		"missing from the current run": tc.clear,
	}
	for i, edit := range tc.extra {
		drifts[fmt.Sprintf("extra drift %d", i)] = edit
	}
	for what, edit := range drifts {
		d := Diff(base, fresh(edit), DefaultThresholds())
		if len(d.Regressions) != 1 || d.Regressions[0].Field != name {
			t.Errorf("%s: want one %s regression, got %+v", what, name, d.Regressions)
		}
	}
	d := Diff(fresh(tc.clear), base, DefaultThresholds())
	if !d.Clean() || len(d.Warnings) != 1 || d.Warnings[0].Field != name {
		t.Errorf("missing from the baseline: want one warning, got %+v %+v", d.Regressions, d.Warnings)
	}
}

func TestDiffAFD(t *testing.T)         { checkGoldenDiff(t, "afd") }
func TestDiffEnsemble(t *testing.T)    { checkGoldenDiff(t, "ensemble") }
func TestDiffIncremental(t *testing.T) { checkGoldenDiff(t, "incremental") }
func TestDiffQuality(t *testing.T)     { checkGoldenDiff(t, "quality") }

func TestDefaultSuiteShape(t *testing.T) {
	suite := DefaultSuite()
	if len(suite) < 10 {
		t.Fatalf("suite has %d cells; the canonical suite should cover the registry corpora and gen profiles", len(suite))
	}
	seen := map[string]bool{}
	for _, s := range suite {
		if seen[s.Name] {
			t.Errorf("duplicate suite cell %q", s.Name)
		}
		seen[s.Name] = true
	}
	for _, want := range []string{"iris", "abalone", "patient", "gen-fd-reduced-800x10"} {
		if !seen[want] {
			t.Errorf("suite missing %q", want)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := Run(quickSuite(), Config{Runs: 1}, nil)
	path := filepath.Join(t.TempDir(), "BASELINE.json")
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Cells) != len(b.Cells) {
		t.Fatalf("cells: %d vs %d", len(got.Cells), len(b.Cells))
	}
	for i := range b.Cells {
		if got.Cells[i].Accuracy != b.Cells[i].Accuracy {
			t.Errorf("%s: accuracy changed across save/load", b.Cells[i].Dataset)
		}
	}
}

func TestLoadRejectsBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BASELINE.json")
	b := Run(quickSuite()[:1], Config{Runs: 1}, nil)
	b.Schema = 99
	if err := Save(path, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("schema 99 accepted")
	}
}

// synthetic builds a baseline by hand so Diff is testable without
// running the engine.
func synthetic() *Baseline {
	return &Baseline{
		Schema: bench.SchemaVersion, Suite: "default",
		NumCPU: 4, GOMAXPROCS: 4, Workers: 0,
		Cells: []CellResult{
			{
				Dataset: "d1", Rows: 100, Cols: 5,
				Accuracy: Accuracy{TruePositives: 10, FDs: 10, TruthFDs: 10, Precision: 1, Recall: 1, F1: 1, NcoverSize: 7, Inversions: 2},
				Perf:     Perf{Runs: 3, SamplingMS: 40, NcoverMS: 10, InversionMS: 5, TotalMS: 60},
			},
			{
				Dataset: "d2", Rows: 200, Cols: 9,
				Accuracy: Accuracy{TruePositives: 90, FalsePositives: 2, FalseNegatives: 1, FDs: 92, TruthFDs: 91, Precision: 0.978, Recall: 0.989, F1: 0.983},
				Perf:     Perf{Runs: 3, SamplingMS: 100, NcoverMS: 30, InversionMS: 20, TotalMS: 160},
			},
		},
	}
}

func clone(b *Baseline) *Baseline {
	c := *b
	c.Cells = append([]CellResult(nil), b.Cells...)
	return &c
}

func TestDiffClean(t *testing.T) {
	base := synthetic()
	d := Diff(base, clone(base), DefaultThresholds())
	if !d.Clean() {
		t.Fatalf("identical baselines diffed dirty: %+v", d.Regressions)
	}
	if !d.PerfGated {
		t.Error("matching machine shape should gate perf in auto mode")
	}
}

func TestDiffAccuracyRegression(t *testing.T) {
	base := synthetic()
	cur := clone(base)
	cur.Cells[1].Accuracy.TruePositives = 89
	cur.Cells[1].Accuracy.FalseNegatives = 2
	cur.Cells[1].Accuracy.Recall = 0.978
	d := Diff(base, cur, DefaultThresholds())
	if d.Clean() {
		t.Fatal("accuracy drift not flagged")
	}
	fields := map[string]bool{}
	for _, f := range d.Regressions {
		if f.Dataset != "d2" || f.Kind != "accuracy" {
			t.Errorf("unexpected finding %+v", f)
		}
		fields[f.Field] = true
	}
	for _, want := range []string{"tp", "fn", "recall"} {
		if !fields[want] {
			t.Errorf("missing regression on %s", want)
		}
	}
}

func TestDiffAccuracyImprovementStillGates(t *testing.T) {
	// Exact-match gating is symmetric: an unexplained F1 increase is a
	// behavior change and must force a re-record, not silently pass.
	base := synthetic()
	cur := clone(base)
	cur.Cells[1].Accuracy.F1 = 0.999
	d := Diff(base, cur, DefaultThresholds())
	if d.Clean() {
		t.Fatal("upward accuracy drift not flagged")
	}
	if !strings.Contains(d.Regressions[0].Note, "re-record") {
		t.Errorf("note should direct to re-record: %q", d.Regressions[0].Note)
	}
}

func TestDiffPerfRegressionGated(t *testing.T) {
	base := synthetic()
	cur := clone(base)
	cur.Cells[1].Perf.SamplingMS = 1000 // 10x the 100ms baseline
	d := Diff(base, cur, DefaultThresholds())
	if d.Clean() {
		t.Fatal("10x sampling blowup not flagged on matching machine shape")
	}
	if d.Regressions[0].Field != "sampling_ms" || d.Regressions[0].Kind != "perf" {
		t.Errorf("finding = %+v", d.Regressions[0])
	}
}

func TestDiffPerfNoiseFloor(t *testing.T) {
	// d1's inversion median is 5ms; tripling it to 15ms is noise, not a
	// regression — the floor clamps the effective baseline to 25ms.
	base := synthetic()
	cur := clone(base)
	cur.Cells[0].Perf.InversionMS = 15
	d := Diff(base, cur, DefaultThresholds())
	if !d.Clean() {
		t.Fatalf("sub-floor excursion flagged: %+v", d.Regressions)
	}
}

func TestDiffPerfCPUMismatchWarnsOnly(t *testing.T) {
	for _, tc := range []struct {
		name  string
		shape func(b *Baseline)
		note  string
	}{
		{"cpu", func(b *Baseline) { b.NumCPU = 1 }, "cpu 4→1"}, // recorded on 4 CPUs, checked on 1
		// Same CPUs, but Workers = 0 follows GOMAXPROCS: a different pool size.
		{"gomaxprocs", func(b *Baseline) { b.GOMAXPROCS = 1 }, "gomaxprocs 4→1"},
	} {
		base := synthetic()
		cur := clone(base)
		tc.shape(cur)
		cur.Cells[1].Perf.SamplingMS = 1000
		d := Diff(base, cur, DefaultThresholds())
		if !d.Clean() {
			t.Fatalf("%s: perf gated across machine shapes: %+v", tc.name, d.Regressions)
		}
		if d.PerfGated {
			t.Errorf("%s: PerfGated true despite the mismatch", tc.name)
		}
		if !strings.Contains(d.PerfNote, tc.note) {
			t.Errorf("%s: note %q does not name %q", tc.name, d.PerfNote, tc.note)
		}
		if len(d.Warnings) == 0 {
			t.Errorf("%s: excursion should downgrade to a warning, not vanish", tc.name)
		}
	}
}

func TestDiffPerfModes(t *testing.T) {
	base := synthetic()
	cur := clone(base)
	cur.NumCPU = 1
	cur.Cells[1].Perf.SamplingMS = 1000

	th := DefaultThresholds()
	th.Mode = PerfGate // force gating despite the mismatch
	if d := Diff(base, cur, th); d.Clean() {
		t.Error("gate mode did not gate")
	}
	th.Mode = PerfOff
	if d := Diff(base, cur, th); !d.Clean() || len(d.Warnings) != 0 {
		t.Error("off mode still compared perf")
	}
	th.Mode = PerfWarn
	cur.NumCPU = base.NumCPU
	if d := Diff(base, cur, th); !d.Clean() || len(d.Warnings) == 0 {
		t.Error("warn mode gated or stayed silent")
	}
}

func TestDiffMissingAndNewCells(t *testing.T) {
	base := synthetic()
	cur := clone(base)
	cur.Cells = cur.Cells[:1] // d2 vanished
	d := Diff(base, cur, DefaultThresholds())
	if d.Clean() {
		t.Fatal("missing baseline cell not flagged")
	}

	cur = clone(base)
	cur.Cells = append(cur.Cells, CellResult{Dataset: "d3"})
	d = Diff(base, cur, DefaultThresholds())
	if !d.Clean() {
		t.Fatalf("new cell should warn, not fail: %+v", d.Regressions)
	}
	if len(d.Warnings) == 0 {
		t.Error("new cell produced no warning")
	}
}

func TestParsePerfMode(t *testing.T) {
	for s, want := range map[string]PerfMode{"auto": PerfAuto, "gate": PerfGate, "warn": PerfWarn, "off": PerfOff} {
		got, err := ParsePerfMode(s)
		if err != nil || got != want {
			t.Errorf("ParsePerfMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePerfMode("strict"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestWriteTable(t *testing.T) {
	base := synthetic()
	cur := clone(base)
	cur.Cells[0].Accuracy.F1 = 0.5
	cur.Cells[0].Accuracy.Precision = 0.5
	d := Diff(base, cur, DefaultThresholds())
	var buf bytes.Buffer
	d.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"REGRESSION", "d1", "f1", "precision", "regression(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	d = Diff(base, clone(base), DefaultThresholds())
	buf.Reset()
	d.WriteTable(&buf)
	if !strings.Contains(buf.String(), "all cells match") {
		t.Errorf("clean table = %q", buf.String())
	}
}
