package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/datasets"
	"eulerfd/internal/ensemble"
	"eulerfd/internal/metrics"
	"eulerfd/internal/preprocess"
)

// EnsembleDatasets are the corpora the ensemble group votes on: all
// TANE-feasible (the experiment scores majorities against exact ground
// truth), and chess carries the known default-threshold false positive
// the g3 cross-check exists to flag.
var EnsembleDatasets = []string{"iris", "bridges", "chess", "abalone"}

// EnsembleSizes is the member-count sweep: 1 (a plain seeded run) up
// through 9, odd so strict majorities cannot tie.
var EnsembleSizes = []int{1, 3, 5, 9}

// Ensemble benchmarks confidence voting on EnsembleDatasets: for each
// corpus and each member count it votes the full ensemble (with the g3
// cross-check on, from the runner's EulerFD options) and reports the
// wall time plus the precision and recall of the strict majority against
// TANE's exact cover. The vote is deterministic, so the counters and the
// score come from the last run; only the clock varies between runs.
func Ensemble(w io.Writer, r *Runner) ([]ReportCell, error) {
	fmt.Fprintf(w, "Ensemble voting: majority accuracy vs TANE ground truth, median of %d runs\n", Runs)
	t := NewTable(w, []string{"dataset", "rows", "cols", "N", "cands", "majority", "suspects", "prec", "recall", "median"},
		[]int{16, 8, 6, 4, 8, 10, 10, 8, 8, 10})
	var cells []ReportCell
	for _, name := range EnsembleDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("ensemble: %w", err)
		}
		enc := preprocess.Encode(d.Build())
		truth, _, err := algo.RunEncoded(context.Background(), algo.TANE, enc, algo.Tuning{})
		if err != nil {
			return nil, fmt.Errorf("ensemble: %s: %w", name, err)
		}
		for _, n := range EnsembleSizes {
			cfg := ensemble.Config{Euler: r.Tuning.Euler, CrossCheck: true}
			cfg.Euler.Ensemble = n
			var res *ensemble.Result
			tm, err := TimeRuns(Runs, func() (map[string]time.Duration, error) {
				var err error
				res, err = ensemble.Discover(context.Background(), enc, cfg, nil)
				return nil, err
			})
			if err != nil {
				return nil, fmt.Errorf("ensemble: %s, N=%d: %w", name, n, err)
			}
			eval := metrics.Evaluate(res.Majority(), truth)
			c := ReportCell{
				Group: "ensemble", Dataset: enc.Name, Rows: enc.NumRows, Cols: len(enc.Attrs),
				Algo: algo.EulerEnsemble, Options: fmt.Sprintf("crosscheck seed=%d", cfg.Euler.Seed),
				Workers: cfg.Euler.Workers, Timing: tm,
				Counters: map[string]int{
					"members": res.Members, "candidates": res.Stats.Candidates,
					"majority": res.Stats.MajoritySize, "suspects": res.Stats.Suspects,
				},
				Score: &Score{Precision: eval.Precision, Recall: eval.Recall, F1: eval.F1},
			}
			t.Row(c.Dataset, fmt.Sprint(c.Rows), fmt.Sprint(c.Cols), fmt.Sprint(res.Members),
				fmt.Sprint(res.Stats.Candidates), fmt.Sprint(res.Stats.MajoritySize), fmt.Sprint(res.Stats.Suspects),
				fmt.Sprintf("%.3f", eval.Precision), fmt.Sprintf("%.3f", eval.Recall),
				fmt.Sprintf("%.1fms", c.MedianMS))
			cells = append(cells, c)
		}
	}
	return cells, nil
}
