package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/datasets"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
)

func testEncoded() *preprocess.Encoded {
	return preprocess.Encode(gen.Patient())
}

func TestRunnerRunAllAlgorithms(t *testing.T) {
	r := NewRunner()
	enc := testEncoded()
	truth := r.Truth(enc)
	if truth.Len() == 0 {
		t.Fatal("oracle found nothing on patient")
	}
	for _, id := range []algo.ID{algo.TANE, algo.Fdep, algo.HyFD, algo.AIDFD, algo.Euler} {
		c := r.Measure(id, enc, truth)
		if c.Err != "" {
			t.Errorf("%s hit budget on a 9-row relation", id)
		}
		if c.FDs != truth.Len() {
			t.Errorf("%s found %d FDs, want %d", id, c.FDs, truth.Len())
		}
		if !c.HasTruth || c.F1 != 1 {
			t.Errorf("%s F1 = %v", id, c.F1)
		}
	}
}

func TestRunnerBudgetMarksTL(t *testing.T) {
	r := NewRunner()
	r.Budget = time.Nanosecond
	c := r.Measure(algo.Fdep, testEncoded(), nil)
	if c.Err != "TL" {
		t.Errorf("expected TL, got %+v", c)
	}
	if c.FDs != 0 {
		t.Error("TL cell must not report FDs")
	}
}

func TestRunnerUnknownAlgoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRunner().Run("nope", testEncoded())
}

func TestMeasureWithoutTruth(t *testing.T) {
	c := NewRunner().Measure(algo.Euler, testEncoded(), nil)
	if c.HasTruth || c.F1 != -1 {
		t.Errorf("no-truth cell: %+v", c)
	}
	if FmtF1(c) != "-" {
		t.Errorf("FmtF1 = %q", FmtF1(c))
	}
}

// TestTableWriter pins the padding: every cell is left-aligned to its
// column width, and a column past the given widths is 12 wide.
func TestTableWriter(t *testing.T) {
	var buf bytes.Buffer
	tab := NewTable(&buf, []string{"a", "b"}, []int{4})
	tab.Row("1", "2")
	want := "a   b           \n1   2           \n"
	if buf.String() != want {
		t.Errorf("table output = %q, want %q", buf.String(), want)
	}
}

func TestFmtTime(t *testing.T) {
	if FmtTime(1500*time.Millisecond) != "1.500" {
		t.Errorf("FmtTime = %q", FmtTime(1500*time.Millisecond))
	}
}

func TestExperimentRegistryComplete(t *testing.T) {
	if len(ExperimentIDs) != 12 {
		t.Fatalf("want 12 experiments (Table III, Figs 6-11, Table V, sampling, ensemble, incremental, quality), got %d", len(ExperimentIDs))
	}
	for _, id := range ExperimentIDs {
		if _, ok := Experiments[id]; !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestSkipCellPolicy(t *testing.T) {
	// TANE is skipped on wide relations, Fdep on tall ones, mirroring the
	// paper's TL/ML entries.
	if got := skipCell(algo.TANE, datasets.Info{Name: "lineitem"}); got != "ML" {
		t.Errorf("TANE on lineitem = %q, want ML (paper Table III)", got)
	}
	if got := skipCell(algo.TANE, datasets.Info{Name: "letter", Cols: 17}); got != "TL" {
		t.Errorf("TANE on letter = %q, want predictive TL", got)
	}
	if got := skipCell(algo.TANE, datasets.Info{Name: "fd-reduced-30", Cols: 30}); got != "" {
		t.Errorf("TANE on fd-reduced-30 = %q, paper completes it", got)
	}
	if got := skipCell(algo.Fdep, datasets.Info{Name: "uniprot"}); got != "ML" {
		t.Errorf("Fdep on uniprot = %q, want ML", got)
	}
	for _, d := range datasets.All() {
		if got := skipCell(algo.Euler, d); got != "" {
			t.Errorf("EulerFD skipped on %s: %q", d.Name, got)
		}
	}
}

func TestFig9ExperimentSmoke(t *testing.T) {
	// Fig9 is the cheapest full experiment (~0.3 s): run it end to end
	// and check the output shape.
	var buf bytes.Buffer
	Fig9(&buf, NewRunner())
	out := buf.String()
	for _, want := range []string{"Figure 9", "10cols", "60cols", "EulerFD"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig9 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig7ExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 sweeps 20k rows; skipped with -short")
	}
	var buf bytes.Buffer
	Fig7(&buf, NewRunner())
	out := buf.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "rows") {
		t.Errorf("fig7 output malformed:\n%s", out)
	}
}
