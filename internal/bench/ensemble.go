package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/datasets"
	"eulerfd/internal/ensemble"
	"eulerfd/internal/fdset"
	"eulerfd/internal/metrics"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/regress/report"
)

// EnsembleDatasets are the corpora the ensemble benchmark votes on: all
// TANE-feasible (the experiment scores majorities against exact ground
// truth), and chess carries the known default-threshold false positive
// the g3 cross-check exists to flag.
var EnsembleDatasets = []string{"iris", "bridges", "chess", "abalone"}

// EnsembleSizes is the member-count sweep: 1 (a plain seeded run) up
// through 9, odd so strict majorities cannot tie.
var EnsembleSizes = []int{1, 3, 5, 9}

// EnsembleCell is one (dataset, members) measurement: the median-of-N
// wall time of the full vote plus the accuracy of the majority set
// against exact ground truth.
type EnsembleCell struct {
	Dataset    string  `json:"dataset"`
	Rows       int     `json:"rows"`
	Cols       int     `json:"cols"`
	Members    int     `json:"members"`
	Candidates int     `json:"candidates"`
	Majority   int     `json:"majority"`
	Suspects   int     `json:"suspects"`
	Precision  float64 `json:"precision"`
	Recall     float64 `json:"recall"`
	F1         float64 `json:"f1"`
	Runs       int     `json:"runs"`
	MedianMS   float64 `json:"median_ms"`
	MinMS      float64 `json:"min_ms"`
	MaxMS      float64 `json:"max_ms"`
}

// EnsembleReport is the JSON document fdbench -ensemble-json emits,
// with the same schema-versioned envelope as the other reports.
type EnsembleReport struct {
	Schema     int            `json:"schema"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	Seed       uint64         `json:"seed"`
	Runs       int            `json:"runs"`
	Cells      []EnsembleCell `json:"cells"`
}

// ensembleCell votes one (dataset, members) cell runs times and reports
// the median wall time. The vote is deterministic, so accuracy fields
// come from the last run; only the clock varies between repetitions.
func ensembleCell(enc *preprocess.Encoded, truth *fdset.Set, cfg ensemble.Config, runs int) EnsembleCell {
	times := make([]float64, 0, runs)
	var res *ensemble.Result
	for i := 0; i < runs; i++ {
		start := time.Now()
		r, err := ensemble.Discover(context.Background(), enc, cfg, nil)
		if err != nil {
			panic("bench: ensemble on " + enc.Name + ": " + err.Error())
		}
		times = append(times, report.Millis(time.Since(start)))
		res = r
	}
	sort.Float64s(times)
	eval := metrics.Evaluate(res.Majority(), truth)
	return EnsembleCell{
		Dataset: enc.Name, Rows: enc.NumRows, Cols: len(enc.Attrs),
		Members:    res.Members,
		Candidates: res.Stats.Candidates, Majority: res.Stats.MajoritySize,
		Suspects:  res.Stats.Suspects,
		Precision: eval.Precision, Recall: eval.Recall, F1: eval.F1,
		Runs:     runs,
		MedianMS: times[len(times)/2], MinMS: times[0], MaxMS: times[len(times)-1],
	}
}

// RunEnsemble benchmarks confidence voting on EnsembleDatasets: for each
// corpus and each member count it votes the full ensemble (with the g3
// cross-check on) and reports the median wall time plus the precision
// and recall of the strict majority against TANE's exact cover.
func RunEnsemble(w io.Writer, workers int, seed uint64, runs int) EnsembleReport {
	if runs < 1 {
		runs = 3
	}
	rep := EnsembleReport{
		Schema: report.SchemaVersion,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers, Seed: seed, Runs: runs,
	}
	fmt.Fprintf(w, "Ensemble voting: majority accuracy vs TANE ground truth, median of %d runs\n", runs)
	t := NewTable(w, []string{"dataset", "rows", "cols", "N", "cands", "majority", "suspects", "prec", "recall", "median"},
		[]int{16, 8, 6, 4, 8, 10, 10, 8, 8, 10})
	for _, name := range EnsembleDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			fmt.Fprintf(w, "ensemble: %v\n", err)
			continue
		}
		enc := preprocess.Encode(d.Build())
		truth, _, err := algo.RunEncoded(context.Background(), algo.TANE, enc, algo.Tuning{})
		if err != nil {
			panic("bench: " + err.Error())
		}
		for _, n := range EnsembleSizes {
			cfg := ensemble.Config{CrossCheck: true}
			cfg.Euler = core.DefaultOptions()
			cfg.Euler.Workers = workers
			cfg.Euler.Ensemble = n
			cfg.Euler.Seed = seed
			c := ensembleCell(enc, truth, cfg, runs)
			t.Row(c.Dataset, fmt.Sprint(c.Rows), fmt.Sprint(c.Cols), fmt.Sprint(c.Members),
				fmt.Sprint(c.Candidates), fmt.Sprint(c.Majority), fmt.Sprint(c.Suspects),
				fmt.Sprintf("%.3f", c.Precision), fmt.Sprintf("%.3f", c.Recall),
				fmt.Sprintf("%.1fms", c.MedianMS))
			rep.Cells = append(rep.Cells, c)
		}
	}
	return rep
}

// WriteEnsembleJSON writes the report as schema-versioned indented JSON.
func WriteEnsembleJSON(w io.Writer, rep EnsembleReport) error {
	return report.WriteJSON(w, rep)
}

// RunEnsembleToFile runs the ensemble benchmark and writes the JSON
// report to path. The output file is created up front so a bad path
// fails fast.
func RunEnsembleToFile(w io.Writer, workers int, seed uint64, runs int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rep := RunEnsemble(w, workers, seed, runs)
	if err := WriteEnsembleJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Ensemble is the fdbench experiment wrapper (`-exp ensemble`): the
// precision/recall-vs-ensemble-size sweep behind exp_ensemble.txt.
func Ensemble(w io.Writer, r *Runner) {
	RunEnsemble(w, r.Tuning.Euler.Workers, r.Tuning.Euler.Seed, 1)
}
