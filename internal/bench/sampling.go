package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// SamplingDatasets are the registry datasets the sampling group runs on:
// sampling-dominant shapes where ExhaustWindows stays feasible.
var SamplingDatasets = []string{"chess", "abalone", "nursery", "adult", "letter"}

// discover is the EulerFD entry point the sampling group times; a test
// swaps it to break the Workers determinism contract on purpose.
var discover = core.DiscoverEncoded

// Sampling benchmarks the engine on SamplingDatasets: each dataset runs
// with ExhaustWindows and with the default options, each at Workers=1
// (the paper's sequential path) and Workers=N (the runner's worker count;
// 0 means NumCPU, floored at 4 so the worker pool runs even on small
// machines). Cells report the per-stage split and, at Workers=N, the
// speedup of the stages the pool shards by RHS: Ncover admission plus
// inversion. Sampling itself is sequential at every worker count. The
// two covers of a pair must be byte-identical, the engine's determinism
// contract; a difference is an error.
func Sampling(w io.Writer, r *Runner) ([]ReportCell, error) {
	workers := r.Tuning.Euler.Workers
	if workers < 1 {
		workers = max(runtime.NumCPU(), 4)
	}
	fmt.Fprintf(w, "EulerFD stages: Workers=1 vs Workers=%d (NumCPU=%d), median of %d runs; speedup = ncover+invert at Workers=1 over Workers=%d\n",
		workers, runtime.NumCPU(), Runs, workers)
	t := NewTable(w, []string{"dataset", "rows", "cols", "options", "workers", "sampling", "ncover", "invert", "total", "speedup"},
		[]int{16, 8, 6, 12, 9, 10, 10, 10, 10, 9})
	var cells []ReportCell
	for _, name := range SamplingDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("sampling: %w", err)
		}
		enc := preprocess.Encode(d.Build())
		for _, mode := range []string{"exhaustive", "default"} {
			opt := r.Tuning.Euler
			opt.ExhaustWindows = mode == "exhaustive"
			seq, seqFDs := samplingCell(enc, opt, mode, 1)
			par, parFDs := samplingCell(enc, opt, mode, workers)
			if !parFDs.Equal(seqFDs) {
				return nil, fmt.Errorf("sampling: %s (%s): the Workers=%d cover differs from the Workers=1 cover",
					name, mode, workers)
			}
			seq.Speedup = 1
			par.Speedup = shardedMS(seq) / shardedMS(par)
			for _, c := range []ReportCell{seq, par} {
				t.Row(c.Dataset, fmt.Sprint(c.Rows), fmt.Sprint(c.Cols), c.Options, fmt.Sprint(c.Workers),
					fmt.Sprintf("%.1fms", c.LayersMS["sampling"]), fmt.Sprintf("%.1fms", c.LayersMS["ncover"]),
					fmt.Sprintf("%.1fms", c.LayersMS["inversion"]), fmt.Sprintf("%.1fms", c.MedianMS),
					fmt.Sprintf("%.2fx", c.Speedup))
			}
			cells = append(cells, seq, par)
		}
	}
	return cells, nil
}

// shardedMS is the median time of the stages the worker pool shards by
// RHS, Ncover admission plus inversion, floored at one microsecond so a
// speedup stays positive and finite when both round to 0 ms.
func shardedMS(c ReportCell) float64 {
	return max(c.LayersMS["ncover"]+c.LayersMS["inversion"], 0.001)
}

// samplingCell times EulerFD on enc at the given worker count and returns
// the cell with the cover of the last run.
func samplingCell(enc *preprocess.Encoded, opt core.Options, mode string, workers int) (ReportCell, *fdset.Set) {
	opt.Workers = workers
	var fds *fdset.Set
	var st core.Stats
	tm, _ := TimeRuns(Runs, func() (map[string]time.Duration, error) {
		fds, st = discover(enc, opt)
		return StageSplit(st), nil // discovery has no error path
	})
	return ReportCell{
		Group: "sampling", Dataset: enc.Name, Rows: enc.NumRows, Cols: len(enc.Attrs),
		Algo: algo.Euler, Options: mode, Workers: workers, Timing: tm,
		Counters: map[string]int{
			"pairs_compared": st.PairsCompared, "agree_sets": st.AgreeSets,
			"ncover_size": st.NcoverSize, "fds": fds.Len(),
		},
	}, fds
}
