package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

func TestRunSamplingSmoke(t *testing.T) {
	saved := SamplingDatasets
	SamplingDatasets = []string{"abalone"} // one small dataset keeps the smoke fast
	defer func() { SamplingDatasets = saved }()

	r := NewRunner()
	r.Tuning.Euler.Workers = 2
	var buf bytes.Buffer
	cells, err := Sampling(&buf, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("want 4 cells (exhaustive and default, workers 1 and 2), got %d", len(cells))
	}
	for i := 0; i < len(cells); i += 2 {
		seq, par := cells[i], cells[i+1]
		if seq.Workers != 1 || par.Workers != 2 || seq.Options != par.Options {
			t.Errorf("cell pair = %s/%d, %s/%d", seq.Options, seq.Workers, par.Options, par.Workers)
		}
		for _, k := range []string{"agree_sets", "pairs_compared", "fds"} {
			if seq.Counters[k] != par.Counters[k] {
				t.Errorf("%s: %s differs between worker counts: %d/%d", seq.Options, k, seq.Counters[k], par.Counters[k])
			}
		}
		if seq.Runs != Runs || seq.LayersMS["sampling"] <= 0 || par.Speedup <= 0 {
			t.Errorf("%s: timing not recorded: %+v", seq.Options, par.Timing)
		}
	}
	if cells[0].Options != "exhaustive" || cells[2].Options != "default" {
		t.Errorf("options = %s, %s", cells[0].Options, cells[2].Options)
	}
	if !strings.Contains(buf.String(), "abalone") {
		t.Error("table output missing dataset row")
	}
}

// TestReportFailsOnCoverMismatch breaks the Workers determinism contract
// on purpose: the report must fail, name the dataset and the worker
// count, and leave no report behind.
func TestReportFailsOnCoverMismatch(t *testing.T) {
	savedD, savedFn := SamplingDatasets, discover
	SamplingDatasets = []string{"iris"}
	discover = func(enc *preprocess.Encoded, opt core.Options) (*fdset.Set, core.Stats) {
		fds, st := core.DiscoverEncoded(enc, opt)
		if opt.Workers > 1 {
			fds.Remove(fds.Slice()[0])
		}
		return fds, st
	}
	defer func() { SamplingDatasets, discover = savedD, savedFn }()

	r := NewRunner()
	r.Tuning.Euler.Workers = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	err := RunReport(&bytes.Buffer{}, r, path)
	if err == nil || !strings.Contains(err.Error(), "iris") || !strings.Contains(err.Error(), "Workers=3") {
		t.Fatalf("err = %v, want a cover mismatch naming iris and Workers=3", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("failed run left files behind: %v", entries)
	}
}
