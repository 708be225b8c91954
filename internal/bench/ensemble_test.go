package bench

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunEnsembleSmoke(t *testing.T) {
	savedD, savedN := EnsembleDatasets, EnsembleSizes
	EnsembleDatasets = []string{"iris"}
	EnsembleSizes = []int{1, 3}
	defer func() { EnsembleDatasets, EnsembleSizes = savedD, savedN }()

	r := NewRunner()
	r.Tuning.Euler.Workers = 1
	var buf bytes.Buffer
	cells, err := Ensemble(&buf, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("want 2 cells (one per size), got %d", len(cells))
	}
	for i, c := range cells {
		if c.Dataset != "iris" || c.Runs != Runs {
			t.Errorf("cell header = %+v", c)
		}
		if c.Counters["members"] != EnsembleSizes[i] {
			t.Errorf("cell %d: members = %d, want %d", i, c.Counters["members"], EnsembleSizes[i])
		}
		if c.Counters["majority"] > c.Counters["candidates"] {
			t.Errorf("majority %d exceeds candidates %d", c.Counters["majority"], c.Counters["candidates"])
		}
		// iris is trivially discoverable: every member finds the exact
		// cover, so the majority scores perfectly against TANE.
		if c.Score == nil || c.Score.Precision != 1 || c.Score.Recall != 1 {
			t.Errorf("members=%d: score %+v, want precision and recall 1 on iris", i, c.Score)
		}
		if c.MinMS > c.MedianMS || c.MedianMS > c.MaxMS {
			t.Errorf("times not ordered: %+v", c.Timing)
		}
	}
	if !strings.Contains(buf.String(), "iris") {
		t.Error("table output missing dataset row")
	}
}
