// Package bench is the measurement harness. It regenerates every table
// and figure of the paper's evaluation (Section V) on the synthetic
// stand-in datasets: it runs (algorithm × dataset) cells, measures wall
// time, scores F1 against the exact oracle, and renders paper-style rows.
// It also writes BENCH_report.json, the cells of the measurement groups
// no other benchmark covers, and owns the timing loop, JSON helpers and
// table writer that the regression harness (internal/regress) shares.
package bench

import (
	"context"
	"fmt"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/fdset"
	"eulerfd/internal/metrics"
	"eulerfd/internal/preprocess"
)

// Cell is one (algorithm, dataset) measurement.
type Cell struct {
	Algo     algo.ID
	Dataset  string
	Rows     int
	Cols     int
	Time     time.Duration
	FDs      int
	F1       float64 // NaN-free: -1 when no ground truth is available
	Err      string  // "TL" when the time budget was exceeded, "" otherwise
	HasTruth bool
}

// Runner executes registered algorithms on encoded relations under a
// time budget.
type Runner struct {
	// Budget is the per-cell wall-clock budget. Cells whose algorithm is
	// predicted (by a prior run on the same dataset family) or measured
	// to exceed it are marked "TL". Zero means no budget.
	Budget time.Duration
	// Tuning configures every algorithm the runner dispatches, the
	// exact oracle included.
	Tuning algo.Tuning
}

// NewRunner returns a Runner with the paper's defaults.
func NewRunner() *Runner {
	return &Runner{Budget: 2 * time.Minute, Tuning: algo.DefaultTuning()}
}

// Run executes one registered algorithm on an encoded relation and
// returns the FD set with its wall time. It panics on an unknown ID or
// an invalid Tuning: both are harness bugs.
func (r *Runner) Run(id algo.ID, enc *preprocess.Encoded) (*fdset.Set, time.Duration) {
	start := time.Now()
	fds, _, err := algo.RunEncoded(context.Background(), id, enc, r.Tuning)
	if err != nil {
		panic("bench: " + err.Error())
	}
	return fds, time.Since(start)
}

// Measure runs an algorithm and scores it against the given truth (nil
// truth means no F1 is reported). A run over the budget is marked "TL"
// and reports no FDs (detected after the fact; runs are not preempted).
func (r *Runner) Measure(id algo.ID, enc *preprocess.Encoded, truth *fdset.Set) Cell {
	fds, elapsed := r.Run(id, enc)
	c := Cell{
		Algo: id, Dataset: enc.Name,
		Rows: enc.NumRows, Cols: len(enc.Attrs),
		Time: elapsed,
	}
	switch {
	case r.Budget > 0 && elapsed > r.Budget:
		c.Err = "TL"
	case truth != nil:
		c.FDs = fds.Len()
		c.F1 = metrics.Evaluate(fds, truth).F1
		c.HasTruth = true
	default:
		c.FDs = fds.Len()
		c.F1 = -1
	}
	return c
}

// Truth computes the exact FD set via HyFD, the ground-truth oracle of
// the harness (cross-checked against TANE, Fdep, and the brute-force
// oracle in the test suite).
func (r *Runner) Truth(enc *preprocess.Encoded) *fdset.Set {
	fds, _ := r.Run(algo.HyFD, enc)
	return fds
}

// algoName is the registry's display name for id, used as a table
// header.
func algoName(id algo.ID) string {
	info, _ := algo.Lookup(id)
	return info.Name
}

// FmtTime renders a duration in the paper's seconds-with-millis style.
func FmtTime(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// FmtF1 renders an F1 score, or "-" when unavailable.
func FmtF1(c Cell) string {
	if !c.HasTruth {
		return "-"
	}
	return fmt.Sprintf("%.3f", c.F1)
}
