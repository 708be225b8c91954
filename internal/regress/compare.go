package regress

import (
	"fmt"
	"io"

	"eulerfd/internal/bench"
)

// PerfMode selects how wall-time differences are treated by Diff.
type PerfMode int

const (
	// PerfAuto gates wall times only when the machine shape (NumCPU,
	// GOMAXPROCS, Workers) matches the baseline's; otherwise differences
	// downgrade to warnings. This is the CI default: a baseline recorded
	// on a 1-CPU container must not fail a 4-CPU runner, and vice versa,
	// and Workers = 0 sizes the pool by GOMAXPROCS, so equal CPU counts
	// under different GOMAXPROCS values time different pool sizes.
	PerfAuto PerfMode = iota
	// PerfGate always gates wall times, regardless of machine shape.
	PerfGate
	// PerfWarn reports wall-time excursions as warnings only.
	PerfWarn
	// PerfOff ignores wall times entirely.
	PerfOff
)

// ParsePerfMode parses the cmd/fdregress -perf-mode flag value.
func ParsePerfMode(s string) (PerfMode, error) {
	switch s {
	case "auto":
		return PerfAuto, nil
	case "gate":
		return PerfGate, nil
	case "warn":
		return PerfWarn, nil
	case "off":
		return PerfOff, nil
	}
	return 0, fmt.Errorf("regress: unknown perf mode %q (want auto, gate, warn, or off)", s)
}

// Thresholds tunes the noise tolerance of the perf comparison. Accuracy
// has no thresholds: the determinism contract makes it exact.
type Thresholds struct {
	// PerfRatio fails a module time that exceeds baseline×ratio. The
	// default 3.0 is deliberately loose: the gate exists to catch
	// complexity regressions (an accidental O(n²) path), not scheduler
	// jitter on millisecond cells.
	PerfRatio float64
	// PerfFloorMS is the noise floor: a baseline below it is clamped up
	// to it before the ratio test, so cells whose medians sit in the
	// single-digit-millisecond range only fail on order-of-magnitude
	// blowups.
	PerfFloorMS float64
	// Mode selects gating behavior; see PerfMode.
	Mode PerfMode
}

// DefaultThresholds returns the CI defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{PerfRatio: 3.0, PerfFloorMS: 25, Mode: PerfAuto}
}

// Finding is one divergence between a baseline and a current run.
type Finding struct {
	Dataset string
	Field   string
	Base    float64
	Got     float64
	Kind    string // "accuracy", "perf", or "suite"
	Note    string
}

// DiffResult partitions findings by severity. Regressions fail the
// check; warnings and improvements are informational.
type DiffResult struct {
	Regressions  []Finding
	Warnings     []Finding
	Improvements []Finding
	// PerfGated records whether wall times were hard-gated (false means
	// they were skipped or downgraded to warnings; the table says why).
	PerfGated bool
	// PerfNote explains the gating decision for the report header.
	PerfNote string
}

// Clean reports whether the check passed.
func (d *DiffResult) Clean() bool { return len(d.Regressions) == 0 }

// Diff compares a current run against a baseline. Accuracy fields are
// exact-match gated; perf fields are threshold gated per Thresholds.
func Diff(base, cur *Baseline, th Thresholds) *DiffResult {
	d := &DiffResult{}
	d.PerfGated, d.PerfNote = perfGating(base, cur, th)

	baseCells := map[string]CellResult{}
	for _, c := range base.Cells {
		baseCells[c.Dataset] = c
	}
	seen := map[string]bool{}
	for _, c := range cur.Cells {
		seen[c.Dataset] = true
		bc, ok := baseCells[c.Dataset]
		if !ok {
			d.Warnings = append(d.Warnings, Finding{
				Dataset: c.Dataset, Field: "cell", Kind: "suite",
				Note: "not in baseline (new cell; re-record to start gating it)",
			})
			continue
		}
		diffAccuracy(d, bc, c)
		diffPerf(d, bc, c, th)
	}
	for _, c := range base.Cells {
		if !seen[c.Dataset] {
			d.Regressions = append(d.Regressions, Finding{
				Dataset: c.Dataset, Field: "cell", Kind: "suite",
				Note: "baseline cell missing from current run",
			})
		}
	}
	for _, g := range []struct {
		field     string
		base, cur *golden
	}{
		{"afd", base.AFD.golden(), cur.AFD.golden()},
		{"ensemble", base.Ensemble.golden(), cur.Ensemble.golden()},
		{"incremental", base.Incremental.golden(), cur.Incremental.golden()},
		{"quality", base.Quality.golden(), cur.Quality.golden()},
	} {
		diffGolden(d, g.field, g.base, g.cur)
	}
	return d
}

// golden is the exact-match view of a golden cell (afd, ensemble,
// incremental, quality): the inputs or end state that identify the cell,
// and the rendered lines that must reproduce the baseline string for
// string.
type golden struct {
	dataset string
	inputs  string
	lines   []string
}

func (c *AFDCell) golden() *golden {
	if c == nil {
		return nil
	}
	return &golden{c.Dataset, fmt.Sprintf("%s/%s/eps=%g", c.Dataset, c.Measure, c.Epsilon), c.FDs}
}

func (c *EnsembleCell) golden() *golden {
	if c == nil {
		return nil
	}
	return &golden{c.Dataset, fmt.Sprintf("%s/%d members/seed=%d", c.Dataset, c.Members, c.Seed), c.FDs}
}

func (c *IncrementalCell) golden() *golden {
	if c == nil {
		return nil
	}
	return &golden{c.Dataset, fmt.Sprintf("%s/v%d/%d rows", c.Dataset, c.Version, c.Rows), c.FDs}
}

func (c *QualityCell) golden() *golden {
	if c == nil {
		return nil
	}
	lines := append([]string{
		fmt.Sprintf("violating_rows=%d repair_cost=%d", c.ViolatingRows, c.RepairCost),
		"decomposition " + c.Decomposition,
	}, c.Ranked...)
	return &golden{c.Dataset, fmt.Sprintf("%s/k=%d", c.Dataset, c.TopK), lines}
}

// diffGolden exact-match gates one golden cell: its inputs or state, then
// every rendered line, must reproduce the baseline. A cell missing from
// the current run is a regression; one missing from the baseline (which
// was recorded before the subsystem existed) only warns.
func diffGolden(d *DiffResult, field string, base, cur *golden) {
	switch {
	case base == nil && cur == nil:
		return
	case base == nil:
		d.Warnings = append(d.Warnings, Finding{
			Dataset: cur.dataset, Field: field, Kind: "suite",
			Note: fmt.Sprintf("not in baseline (new %s cell; re-record to start gating it)", field),
		})
		return
	case cur == nil:
		d.Regressions = append(d.Regressions, Finding{
			Dataset: base.dataset, Field: field, Kind: "suite",
			Note: fmt.Sprintf("baseline %s cell missing from current run", field),
		})
		return
	}
	f := Finding{Dataset: cur.dataset, Field: field, Kind: "accuracy"}
	switch {
	case base.inputs != cur.inputs:
		f.Note = fmt.Sprintf("%s cell inputs or state changed: %s → %s", field, base.inputs, cur.inputs)
	case len(base.lines) != len(cur.lines):
		f.Base, f.Got = float64(len(base.lines)), float64(len(cur.lines))
		f.Note = fmt.Sprintf("%s line count drift: deterministic output changed", field)
	default:
		i := 0
		for i < len(base.lines) && base.lines[i] == cur.lines[i] {
			i++
		}
		if i == len(base.lines) {
			return
		}
		f.Note = fmt.Sprintf("%s drift at line %d: %q → %q", field, i, base.lines[i], cur.lines[i])
	}
	d.Regressions = append(d.Regressions, f)
}

func perfGating(base, cur *Baseline, th Thresholds) (bool, string) {
	switch th.Mode {
	case PerfOff:
		return false, "perf comparison disabled (-perf-mode off)"
	case PerfWarn:
		return false, "perf excursions reported as warnings (-perf-mode warn)"
	case PerfGate:
		return true, "perf hard-gated (-perf-mode gate)"
	}
	if base.NumCPU != cur.NumCPU || base.GOMAXPROCS != cur.GOMAXPROCS || base.Workers != cur.Workers {
		return false, fmt.Sprintf(
			"perf warnings only: machine shape differs from baseline (cpu %d→%d, gomaxprocs %d→%d, workers %d→%d)",
			base.NumCPU, cur.NumCPU, base.GOMAXPROCS, cur.GOMAXPROCS, base.Workers, cur.Workers)
	}
	return true, fmt.Sprintf("perf gated at %.1fx (floor %.0fms): machine shape matches baseline", th.PerfRatio, th.PerfFloorMS)
}

// accuracyFields enumerates the exact-gated scalar fields of a cell.
// Direction matters only for reporting; any mismatch is a regression
// because a deterministic pipeline must reproduce the baseline exactly —
// an unexplained "improvement" still means the algorithm changed.
func accuracyFields(a Accuracy) []struct {
	name string
	val  float64
} {
	return []struct {
		name string
		val  float64
	}{
		{"tp", float64(a.TruePositives)},
		{"fp", float64(a.FalsePositives)},
		{"fn", float64(a.FalseNegatives)},
		{"precision", a.Precision},
		{"recall", a.Recall},
		{"f1", a.F1},
		{"fds", float64(a.FDs)},
		{"truth_fds", float64(a.TruthFDs)},
		{"ncover_size", float64(a.NcoverSize)},
		{"pcover_size", float64(a.PcoverSize)},
		{"agree_sets", float64(a.AgreeSets)},
		{"pairs_compared", float64(a.PairsCompared)},
		{"sample_batches", float64(a.SampleBatches)},
		{"inversions", float64(a.Inversions)},
	}
}

func diffAccuracy(d *DiffResult, base, cur CellResult) {
	bf, cf := accuracyFields(base.Accuracy), accuracyFields(cur.Accuracy)
	for i := range bf {
		if bf[i].val != cf[i].val {
			note := "accuracy drift: deterministic field changed"
			if cf[i].val > bf[i].val && (bf[i].name == "f1" || bf[i].name == "precision" || bf[i].name == "recall" || bf[i].name == "tp") {
				note = "accuracy changed (higher than baseline; re-record to accept the improvement)"
			}
			d.Regressions = append(d.Regressions, Finding{
				Dataset: cur.Dataset, Field: bf[i].name,
				Base: bf[i].val, Got: cf[i].val,
				Kind: "accuracy", Note: note,
			})
		}
	}
	if base.Rows != cur.Rows || base.Cols != cur.Cols {
		d.Regressions = append(d.Regressions, Finding{
			Dataset: cur.Dataset, Field: "shape",
			Base: float64(base.Rows), Got: float64(cur.Rows),
			Kind: "accuracy", Note: fmt.Sprintf("dataset shape changed: %dx%d → %dx%d", base.Rows, base.Cols, cur.Rows, cur.Cols),
		})
	}
}

func perfFields(p Perf) []struct {
	name string
	val  float64
} {
	return []struct {
		name string
		val  float64
	}{
		{"sampling_ms", p.SamplingMS},
		{"ncover_ms", p.NcoverMS},
		{"inversion_ms", p.InversionMS},
		{"total_ms", p.TotalMS},
	}
}

func diffPerf(d *DiffResult, base, cur CellResult, th Thresholds) {
	if th.Mode == PerfOff {
		return
	}
	bf, cf := perfFields(base.Perf), perfFields(cur.Perf)
	for i := range bf {
		effBase := bf[i].val
		if effBase < th.PerfFloorMS {
			effBase = th.PerfFloorMS
		}
		limit := effBase * th.PerfRatio
		f := Finding{
			Dataset: cur.Dataset, Field: bf[i].name,
			Base: bf[i].val, Got: cf[i].val, Kind: "perf",
		}
		switch {
		case cf[i].val > limit:
			f.Note = fmt.Sprintf("median %.1fms exceeds %.1fx baseline (limit %.1fms)", cf[i].val, th.PerfRatio, limit)
			if d.PerfGated {
				d.Regressions = append(d.Regressions, f)
			} else {
				d.Warnings = append(d.Warnings, f)
			}
		case bf[i].val > th.PerfFloorMS && cf[i].val < bf[i].val/th.PerfRatio:
			f.Note = fmt.Sprintf("median %.1fms is under baseline/%.1fx; consider re-recording", cf[i].val, th.PerfRatio)
			d.Improvements = append(d.Improvements, f)
		}
	}
}

// WriteTable renders the diff as the human-readable report cmd/fdregress
// prints: the gating decision, then one row per finding.
func (d *DiffResult) WriteTable(w io.Writer) {
	fmt.Fprintln(w, d.PerfNote)
	if d.Clean() && len(d.Warnings) == 0 && len(d.Improvements) == 0 {
		fmt.Fprintln(w, "regress: all cells match the baseline")
		return
	}
	t := bench.NewTable(w, []string{"severity", "dataset", "field", "baseline", "current", "note"},
		[]int{12, 24, 16, 12, 12, 0})
	row := func(sev string, f Finding) {
		baseS, gotS := fmtVal(f, f.Base), fmtVal(f, f.Got)
		if f.Field == "cell" {
			baseS, gotS = "-", "-"
		}
		t.Row(sev, f.Dataset, f.Field, baseS, gotS, f.Note)
	}
	for _, f := range d.Regressions {
		row("REGRESSION", f)
	}
	for _, f := range d.Warnings {
		row("warning", f)
	}
	for _, f := range d.Improvements {
		row("improvement", f)
	}
	fmt.Fprintf(w, "\n%d regression(s), %d warning(s), %d improvement(s)\n",
		len(d.Regressions), len(d.Warnings), len(d.Improvements))
}

func fmtVal(f Finding, v float64) string {
	switch f.Kind {
	case "perf":
		return fmt.Sprintf("%.1fms", v)
	default:
		if v == float64(int64(v)) {
			return fmt.Sprintf("%d", int64(v))
		}
		return fmt.Sprintf("%.4f", v)
	}
}
