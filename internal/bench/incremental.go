package bench

import (
	"fmt"
	"io"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/datasets"
	"eulerfd/internal/preprocess"
)

// IncrementalDatasets are the registry corpora the incremental-
// maintenance group runs on: the row-heavy shapes where a DMS would
// actually stream mutation batches.
var IncrementalDatasets = []string{"chess", "abalone", "nursery"}

// Incremental scenario: bootstrap on the bulk of the table, then absorb
// incrementalBatches small append batches — the steady-state trickle the
// mutation log exists for. Each batch is incrementalBatchFrac of the
// table (at least incrementalBatchMin rows); a delta scan costs
// O(batch × table) pairs, so the regime where incremental maintenance
// pays is exactly small-batch-vs-whole-table.
const (
	incrementalBatchFrac = 0.005
	incrementalBatchMin  = 8
	incrementalBatches   = 4
)

// Incremental benchmarks delta-append maintenance against full
// rediscovery on IncrementalDatasets. Each run bootstraps an Incremental
// on the base prefix, appends the batches through the mutation log
// (delta), applies one batch mixing deletes and updates (mixed), then
// rediscovers from scratch over each grown prefix (rediscover) — what a
// deployment without delta maintenance must do per import. The speedup,
// rediscover over delta, is the headline: how much cheaper absorbing a
// batch through the mutation log is than rerunning discovery.
func Incremental(w io.Writer, r *Runner) ([]ReportCell, error) {
	opt := r.Tuning.Euler
	fmt.Fprintf(w, "Incremental maintenance: %d append batches plus a delete/update batch, median of %d runs\n",
		incrementalBatches, Runs)
	t := NewTable(w, []string{"dataset", "rows", "cols", "batch", "bootstrap", "delta", "mixed", "rediscover", "speedup"},
		[]int{16, 8, 6, 7, 11, 10, 9, 12, 8})
	var cells []ReportCell
	for _, name := range IncrementalDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("incremental: %w", err)
		}
		c, err := incrementalCell(d.Build(), opt)
		if err != nil {
			return nil, fmt.Errorf("incremental: %s: %w", name, err)
		}
		l := c.LayersMS
		t.Row(c.Dataset, fmt.Sprint(c.Rows), fmt.Sprint(c.Cols), fmt.Sprint(c.Counters["batch_rows"]),
			fmt.Sprintf("%.1fms", l["bootstrap"]), fmt.Sprintf("%.2fms", l["delta"]),
			fmt.Sprintf("%.2fms", l["mixed"]), fmt.Sprintf("%.1fms", l["rediscover"]),
			fmt.Sprintf("%.2fx", c.Speedup))
		cells = append(cells, c)
	}
	return cells, nil
}

// incrementalCell times one dataset's bootstrap → delta → mixed →
// rediscover run.
func incrementalCell(rel *dataset.Relation, opt core.Options) (ReportCell, error) {
	n := len(rel.Rows)
	batchRows := max(int(float64(n)*incrementalBatchFrac), incrementalBatchMin)
	base := n - incrementalBatches*batchRows
	cuts := make([]int, incrementalBatches)
	for i := range cuts {
		cuts[i] = base + (i+1)*batchRows
	}
	tm, err := TimeRuns(Runs, func() (map[string]time.Duration, error) {
		split := map[string]time.Duration{}
		inc, err := core.NewIncremental(rel.Name, rel.Attrs, opt)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := inc.Append(rel.Rows[:base]); err != nil {
			return nil, err
		}
		split["bootstrap"] = time.Since(start)
		start = time.Now()
		prev := base
		for _, cut := range cuts {
			if _, err := inc.Append(rel.Rows[prev:cut]); err != nil {
				return nil, err
			}
			prev = cut
		}
		split["delta"] = time.Since(start)
		// One churn batch: delete the two oldest rows, rewrite two more
		// with the freshest values. Same delta scan, opposite sign.
		churn := core.MutationBatch{Mutations: []core.Mutation{
			core.DeleteOp(0, 1),
			core.UpdateOp([]int64{2, 3}, [][]string{rel.Rows[n-1], rel.Rows[n-2]}),
		}}
		start = time.Now()
		if _, err := inc.Apply(churn); err != nil {
			return nil, err
		}
		split["mixed"] = time.Since(start)
		start = time.Now()
		for _, cut := range cuts {
			prefix, err := dataset.New(rel.Name, rel.Attrs, rel.Rows[:cut])
			if err != nil {
				return nil, err
			}
			core.DiscoverEncoded(preprocess.Encode(prefix), opt)
		}
		split["rediscover"] = time.Since(start)
		return split, nil
	})
	if err != nil {
		return ReportCell{}, err
	}
	c := ReportCell{
		Group: "incremental", Dataset: rel.Name, Rows: n, Cols: len(rel.Attrs),
		Algo: algo.Euler, Options: "default", Workers: opt.Workers, Timing: tm,
		Counters: map[string]int{"base_rows": base, "batch_rows": batchRows, "batches": incrementalBatches},
	}
	if delta := tm.LayersMS["delta"]; delta > 0 {
		c.Speedup = tm.LayersMS["rediscover"] / delta
	}
	return c, nil
}
