package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/datasets"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/quality"
)

// QualityDatasets are the corpora the quality group runs on: a spread of
// tall (abalone, nursery) and wide (bridges) partition shapes, since the
// report's dominant cost is the redundancy ranking over the discovered
// cover.
var QualityDatasets = []string{"iris", "balance-scale", "bridges", "chess", "abalone", "nursery"}

// Quality benchmarks quality-report construction on QualityDatasets:
// discover each corpus's cover once with the runner's EulerFD options,
// then time the full Analyze pipeline (ranking, violations, repairs,
// normalization) with a fresh scorer per run. Analyze runs on one
// goroutine.
func Quality(w io.Writer, r *Runner) ([]ReportCell, error) {
	fmt.Fprintf(w, "quality report: full Analyze pipeline, median of %d runs\n", Runs)
	t := NewTable(w, []string{"dataset", "rows", "cols", "cover", "k", "median", "min", "max"},
		[]int{16, 8, 6, 8, 4, 10, 10, 10})
	qopt := quality.DefaultOptions()
	var cells []ReportCell
	for _, name := range QualityDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("quality: %w", err)
		}
		enc := preprocess.Encode(d.Build())
		cover, _ := core.DiscoverEncoded(enc, r.Tuning.Euler)
		tm, err := TimeRuns(Runs, func() (map[string]time.Duration, error) {
			_, err := quality.Analyze(context.Background(), enc, cover, nil, qopt)
			return nil, err
		})
		if err != nil {
			return nil, fmt.Errorf("quality: %s: %w", name, err)
		}
		c := ReportCell{
			Group: "quality", Dataset: enc.Name, Rows: enc.NumRows, Cols: len(enc.Attrs),
			Algo: algo.AFDRedundancy, Options: fmt.Sprintf("k=%d", qopt.TopK), Workers: 1, Timing: tm,
			Counters: map[string]int{"cover_fds": cover.Len(), "top_k": qopt.TopK},
		}
		t.Row(c.Dataset, fmt.Sprint(c.Rows), fmt.Sprint(c.Cols), fmt.Sprint(cover.Len()),
			fmt.Sprint(qopt.TopK), fmt.Sprintf("%.1fms", c.MedianMS),
			fmt.Sprintf("%.1fms", c.MinMS), fmt.Sprintf("%.1fms", c.MaxMS))
		cells = append(cells, c)
	}
	return cells, nil
}
