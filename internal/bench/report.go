package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/core"
)

// SchemaVersion is the current version of every machine-readable JSON
// document the harnesses emit (BENCH_report.json, BASELINE.json).
// Readers reject documents with a different version instead of
// misinterpreting renamed fields.
const SchemaVersion = 1

// Runs is how many timed repetitions feed every report cell's median.
const Runs = 5

// ReportGroups are the experiment ids whose cells make up
// BENCH_report.json, in run order: the quantities no other benchmark in
// the repository measures.
var ReportGroups = []string{"sampling", "ensemble", "incremental", "quality"}

// Report is the BENCH_report.json document: the machine shape that makes
// its timings interpretable, and the cells of every report group.
type Report struct {
	Schema     int          `json:"schema"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Cells      []ReportCell `json:"cells"`
}

// ReportCell is one measured (group, dataset, algorithm + options,
// workers) cell. Counters holds the group's deterministic tallies,
// Speedup the group's headline ratio (sampling: Workers=1 over Workers=N
// time of the pool-sharded stages, Ncover admission plus inversion;
// incremental: rediscovery over delta time), and Score the accuracy
// against exact ground truth when the cell is scored.
type ReportCell struct {
	Group   string  `json:"group"`
	Dataset string  `json:"dataset"`
	Rows    int     `json:"rows"`
	Cols    int     `json:"cols"`
	Algo    algo.ID `json:"algo"`
	Options string  `json:"options"`
	// Workers is the configured pool size; 0 means runtime.GOMAXPROCS(0).
	Workers int `json:"workers"`
	Timing
	Counters map[string]int `json:"counters,omitempty"`
	Speedup  float64        `json:"speedup,omitempty"`
	Score    *Score         `json:"score,omitempty"`
}

// Timing is the clock half of a cell: the wall time of one repetition
// over Runs repetitions, the median of each named stage, and the mean
// allocation count of one repetition.
type Timing struct {
	Runs        int                `json:"runs"`
	MedianMS    float64            `json:"median_ms"`
	MinMS       float64            `json:"min_ms"`
	MaxMS       float64            `json:"max_ms"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	LayersMS    map[string]float64 `json:"layers_ms,omitempty"`
}

// Score is a scored cell's accuracy against exact ground truth.
type Score struct {
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	F1        float64 `json:"f1"`
}

// TimeRuns is the timing loop of both harnesses: it calls run runs times
// and aggregates the wall time of each call and the per-stage durations
// it returns. An error from any repetition stops the loop and is
// returned.
func TimeRuns(runs int, run func() (map[string]time.Duration, error)) (Timing, error) {
	total := make([]float64, 0, runs)
	stages := map[string][]float64{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		start := time.Now()
		split, err := run()
		if err != nil {
			return Timing{}, err
		}
		total = append(total, Millis(time.Since(start)))
		for name, d := range split {
			stages[name] = append(stages[name], Millis(d))
		}
	}
	runtime.ReadMemStats(&after)
	sort.Float64s(total)
	t := Timing{
		Runs: runs, MedianMS: Median(total), MinMS: total[0], MaxMS: total[len(total)-1],
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(runs),
		LayersMS:    map[string]float64{},
	}
	for name, samples := range stages {
		t.LayersMS[name] = Median(samples)
	}
	return t, nil
}

// StageSplit is EulerFD's layer split of one run, as TimeRuns expects it.
func StageSplit(st core.Stats) map[string]time.Duration {
	return map[string]time.Duration{
		"sampling": st.Sampling, "ncover": st.NcoverBuild, "inversion": st.Inversion,
	}
}

// RunReport runs every report group and writes the document to path. A
// temporary file next to path is created before any cell runs, so a bad
// path fails fast, and it replaces path only after every group has
// succeeded: a failed run leaves the previous report in place.
func RunReport(w io.Writer, r *Runner, path string) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // fails harmlessly once renamed
	defer f.Close()           // a second Close after the checked one is harmless
	rep := Report{Schema: SchemaVersion, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for i, id := range ReportGroups {
		if i > 0 {
			fmt.Fprintln(w)
		}
		cells, err := Experiments[id](w, r)
		if err != nil {
			return err
		}
		rep.Cells = append(rep.Cells, cells...)
	}
	if err := WriteJSON(f, rep); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// CheckSchema validates a document's schema field against the version
// this build understands.
func CheckSchema(got int) error {
	if got != SchemaVersion {
		return fmt.Errorf("bench: unsupported schema version %d (this build reads version %d)", got, SchemaVersion)
	}
	return nil
}

// WriteJSON writes v as indented JSON, the canonical on-disk encoding of
// every harness document.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// WriteJSONFile creates path and writes v as indented JSON.
func WriteJSONFile(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteJSON(f, v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Millis converts a duration to float milliseconds, the unit of every
// timing field in the JSON documents.
func Millis(d time.Duration) float64 { return d.Seconds() * 1000 }

// Median returns the median of samples (mean of the two middle values
// for even lengths), the noise-tolerant aggregate of every harness
// timing: a single descheduled run moves the median far less than it
// moves the mean. Returns 0 for an empty slice.
func Median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Table is a minimal fixed-width table writer for paper-style output.
type Table struct {
	w      io.Writer
	widths []int
}

// NewTable writes a header row and remembers column widths.
func NewTable(w io.Writer, headers []string, widths []int) *Table {
	t := &Table{w: w, widths: widths}
	t.Row(headers...)
	return t
}

// Row writes one row, padding cells to the configured widths.
func (t *Table) Row(cells ...string) {
	for i, c := range cells {
		width := 12
		if i < len(t.widths) {
			width = t.widths[i]
		}
		fmt.Fprintf(t.w, "%-*s", width, c)
	}
	fmt.Fprintln(t.w)
}
