package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eulerfd/internal/bench"
)

func TestRunList(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, id := range append([]string{"table3", "fig6", "fig11", "table5"}, bench.ReportGroups...) {
		if !strings.Contains(out.String(), id) {
			t.Errorf("-list missing %q", id)
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{}, &out, &errw); code != 2 {
		t.Errorf("no -exp: exit %d", code)
	}
	if code := run([]string{"-exp", "nope"}, &out, &errw); code != 2 {
		t.Errorf("unknown exp: exit %d", code)
	}
	if code := run([]string{"-bogus"}, &out, &errw); code != 2 {
		t.Errorf("bad flag: exit %d", code)
	}
	// A bad report path fails before any cell runs: no group prints.
	out.Reset()
	if code := run([]string{"-report", filepath.Join(t.TempDir(), "no", "such", "dir.json")}, &out, &errw); code != 1 {
		t.Errorf("bad -report path: exit %d", code)
	}
	if out.Len() != 0 {
		t.Errorf("bad -report path ran cells first:\n%s", out.String())
	}
}

// tinyGroups points every report group at iris so a full -report run
// takes well under a second.
func tinyGroups(t *testing.T) {
	saved := [][]string{bench.SamplingDatasets, bench.EnsembleDatasets, bench.IncrementalDatasets, bench.QualityDatasets}
	tiny := []string{"iris"}
	bench.SamplingDatasets, bench.EnsembleDatasets, bench.IncrementalDatasets, bench.QualityDatasets = tiny, tiny, tiny, tiny
	t.Cleanup(func() {
		bench.SamplingDatasets, bench.EnsembleDatasets, bench.IncrementalDatasets, bench.QualityDatasets =
			saved[0], saved[1], saved[2], saved[3]
	})
}

// TestRunReport runs -report and pins every JSON path CI's
// bench-multicore job reads with jq: .num_cpu, and .speedup on the
// incremental cells and on the sampling cells with workers > 1.
func TestRunReport(t *testing.T) {
	tinyGroups(t)
	path := filepath.Join(t.TempDir(), "BENCH_report.json")
	var out, errw bytes.Buffer
	if code := run([]string{"-report", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema     any              `json:"schema"`
		NumCPU     any              `json:"num_cpu"`
		GOMAXPROCS any              `json:"gomaxprocs"`
		Cells      []map[string]any `json:"cells"`
	}
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("invalid JSON report: %v", err)
	}
	for name, v := range map[string]any{"schema": rep.Schema, "num_cpu": rep.NumCPU, "gomaxprocs": rep.GOMAXPROCS} {
		if _, ok := v.(float64); !ok {
			t.Errorf(".%s = %v, want a number", name, v)
		}
	}
	groups := map[string]int{}
	for _, c := range rep.Cells {
		group, _ := c["group"].(string)
		groups[group]++
		workers, ok := c["workers"].(float64)
		if !ok {
			t.Errorf("%s cell: .workers = %v, want a number", group, c["workers"])
		}
		if group == "incremental" || (group == "sampling" && workers > 1) {
			if _, ok := c["speedup"].(float64); !ok {
				t.Errorf("%s cell (workers %v): .speedup = %v, want a number", group, workers, c["speedup"])
			}
		}
	}
	for _, g := range bench.ReportGroups {
		if groups[g] == 0 {
			t.Errorf("report has no %s cells", g)
		}
	}
}

// TestRunReportProfiles: -cpuprofile and -memprofile write non-empty
// profiles next to the report.
func TestRunReportProfiles(t *testing.T) {
	tinyGroups(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_report.json")
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	var out, errw bytes.Buffer
	if code := run([]string{"-report", path, "-cpuprofile", cpu, "-memprofile", mem}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, p := range []string{path, cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("%s missing or empty (err=%v)", p, err)
		}
	}
}

// TestRunReportFailingCell: a cell that errors (here, an unknown
// dataset) fails the run with exit 1 and writes no report.
func TestRunReportFailingCell(t *testing.T) {
	tinyGroups(t)
	bench.QualityDatasets = []string{"no-such-dataset"}
	path := filepath.Join(t.TempDir(), "BENCH_report.json")
	var out, errw bytes.Buffer
	if code := run([]string{"-report", path}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "no-such-dataset") {
		t.Errorf("error does not name the dataset: %q", errw.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("failed run wrote %s (err=%v)", path, err)
	}
}
