package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eulerfd/internal/fdset"
)

// tinyRows sizes every workload so the smoke test runs in seconds.
var tinyRows = map[string]int{
	"cover-dense":    300,
	"sample-tall":    2000,
	"serve-mutate":   400,
	"quality-report": 300,
}

func tinyConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	rows, ok := tinyRows[name]
	if !ok {
		t.Fatalf("no tiny size for workload %s", name)
	}
	return config{
		workload:  name,
		seed:      3,
		seconds:   100 * time.Millisecond,
		trace:     trace,
		rows:      rows,
		spansPath: filepath.Join(t.TempDir(), "spans.json"),
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// loadSpec reads the metric names and units BENCHMARK.json promises.
func loadSpec(t *testing.T) (endToEnd, perLayer []specMetric, names []string) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	return spec.EndToEnd, spec.PerLayer, names
}

// lastLine renders a result the way run prints it and parses its last line.
func lastLine(t *testing.T, res *result, ms []metric) resultLine {
	t.Helper()
	var buf bytes.Buffer
	report(&buf, res, ms)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	return line
}

func TestWorkloadsMatchSpec(t *testing.T) {
	_, _, names := loadSpec(t)
	if got, want := strings.Join(workloadNames(), ","), strings.Join(names, ","); got != want {
		t.Fatalf("workloads %s, BENCHMARK.json lists %s", got, want)
	}
}

// TestSmoke runs every workload at a tiny size, untraced and traced. Each
// run must be correct, print every metric BENCHMARK.json names with its
// unit, and, when traced, record spans that nest.
func TestSmoke(t *testing.T) {
	e2e, layer, _ := loadSpec(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			w, trace := w, trace
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				res, err := w.run(tinyConfig(t, w.name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Fatalf("%d incorrect: %v", res.failed, res.problems)
				}
				want, ms := e2e, endToEnd(res)
				if trace {
					want, ms = layer, perLayer(res)
					if len(res.spans) == 0 {
						t.Fatal("traced run recorded no spans")
					}
					if err := checkNesting(res.spans); err != nil {
						t.Fatal(err)
					}
				}
				line := lastLine(t, res, ms)
				if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Fatalf("result line %+v", line)
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(line.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := line.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s printed with unit %q, want %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestCorruptCoverCaught drops one FD from a cover the program returned
// and expects the run to count the operation as failed.
func TestCorruptCoverCaught(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// Traced runs make at least two operations, so a one-shot
			// workload has a first cover to compare the corrupted one with.
			cfg := tinyConfig(t, w.name, true)
			cfg.corrupt = func(op int, s *fdset.Set) {
				if op == 1 || w.name == "serve-mutate" {
					s.Remove(s.Slice()[0])
				}
			}
			res, err := w.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed == 0 {
				t.Fatal("corrupted cover was not caught")
			}
			if line := lastLine(t, res, perLayer(res)); line.Correct {
				t.Fatal("result line claims correct")
			}
		})
	}
}

func TestCheckNestingRejectsEscapingChild(t *testing.T) {
	ok := []span{
		{ID: 1, Op: 0, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 0, Name: "core.discover", Start: 1, End: 9},
		{ID: 3, Parent: 2, Op: 0, Name: "core.sampled", Start: 1, End: 5},
	}
	if err := checkNesting(ok); err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]span{
		{ok[0], ok[1], {ID: 3, Parent: 2, Op: 0, Name: "x.y", Start: 5, End: 11}},
		{ok[0], ok[1], {ID: 3, Parent: 2, Op: 1, Name: "x.y", Start: 2, End: 3}},
		{ok[0], {ID: 2, Parent: 1, Op: 0, Name: "x.y", Start: 2, End: -1}},
	} {
		if checkNesting(bad) == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
	self := selfTimes(ok)
	if self["op"] != 2 || self["core.discover"] != 4 || self["core.sampled"] != 4 {
		t.Fatalf("self times %v", self)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "cover-dense", "--trace", "2"},
		{"--workload", "cover-dense", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
