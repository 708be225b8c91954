package bench

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"eulerfd/internal/core"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/regress/report"
)

// SamplingDatasets are the registry datasets the sampling benchmark runs
// on: sampling-dominant shapes where ExhaustWindows stays feasible, so the
// Workers=1 and Workers=N cells compare byte-identical exhaustive outputs.
var SamplingDatasets = []string{"chess", "abalone", "nursery", "adult", "letter"}

// SamplingCell is one (dataset, workers) measurement of the parallel
// sampling engine, with the per-stage split from core.Stats.
type SamplingCell struct {
	Dataset           string  `json:"dataset"`
	Rows              int     `json:"rows"`
	Cols              int     `json:"cols"`
	Workers           int     `json:"workers"`
	Exhaustive        bool    `json:"exhaustive"`
	SamplingMS        float64 `json:"sampling_ms"`
	NcoverMS          float64 `json:"ncover_ms"`
	InversionMS       float64 `json:"inversion_ms"`
	TotalMS           float64 `json:"total_ms"`
	PairsCompared     int     `json:"pairs_compared"`
	AgreeSets         int     `json:"agree_sets"`
	NcoverSize        int     `json:"ncover_size"`
	FDs               int     `json:"fds"`
	SamplingSpeedup   float64 `json:"sampling_speedup"`
	MatchesSequential bool    `json:"matches_sequential"`
}

// SamplingReport is the JSON document fdbench -json emits; it records the
// machine so speedup numbers are interpretable, and the schema version so
// readers can reject documents written by a different harness build.
type SamplingReport struct {
	Schema     int            `json:"schema"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Workers    int            `json:"workers"`
	Cells      []SamplingCell `json:"cells"`
}

// renderFDs serializes an FD set into a canonical byte string for the
// byte-identical output comparison between worker counts.
func renderFDs(fds *fdset.Set, attrs []string) string {
	var b strings.Builder
	for _, f := range fds.Slice() {
		b.WriteString(f.Format(attrs))
		b.WriteByte('\n')
	}
	return b.String()
}

func samplingCell(enc *preprocess.Encoded, opt core.Options, workers int) (SamplingCell, string) {
	opt.Workers = workers
	fds, st := core.DiscoverEncoded(enc, opt)
	ms := report.Millis
	return SamplingCell{
		Dataset: enc.Name, Rows: enc.NumRows, Cols: len(enc.Attrs),
		Workers: workers, Exhaustive: opt.ExhaustWindows,
		SamplingMS: ms(st.Sampling), NcoverMS: ms(st.NcoverBuild),
		InversionMS: ms(st.Inversion), TotalMS: ms(st.Total),
		PairsCompared: st.PairsCompared, AgreeSets: st.AgreeSets,
		NcoverSize: st.NcoverSize, FDs: fds.Len(),
	}, renderFDs(fds, enc.Attrs)
}

// RunSampling benchmarks the sampling engine on SamplingDatasets: each
// dataset runs in ExhaustWindows mode with Workers=1 (the paper's
// sequential path) and Workers=workers (0 means NumCPU), reporting the
// per-stage time split, the sampling-phase speedup, and whether the two
// FD outputs are byte-identical — the engine's determinism contract.
func RunSampling(w io.Writer, r *Runner, workers int) SamplingReport {
	if workers < 1 {
		// Floored at 4 so the parallel engine (chunked passes, sharded
		// admission) is exercised even on small CI machines; the report
		// records NumCPU so speedups stay interpretable.
		workers = max(runtime.NumCPU(), 4)
	}
	rep := SamplingReport{Schema: report.SchemaVersion, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers}
	fmt.Fprintf(w, "Sampling engine: Workers=1 vs Workers=%d (NumCPU=%d), ExhaustWindows\n",
		workers, rep.NumCPU)
	t := NewTable(w, []string{"dataset", "rows", "cols", "workers", "sampling", "ncover", "invert", "total", "speedup", "identical"},
		[]int{16, 8, 6, 9, 10, 10, 10, 10, 9, 10})
	for _, name := range SamplingDatasets {
		d, err := datasets.ByName(name)
		if err != nil {
			fmt.Fprintf(w, "sampling: %v\n", err)
			continue
		}
		enc := preprocess.Encode(d.Build())
		opt := r.Tuning.Euler
		opt.ExhaustWindows = true

		seq, seqOut := samplingCell(enc, opt, 1)
		seq.SamplingSpeedup = 1
		seq.MatchesSequential = true
		par, parOut := samplingCell(enc, opt, workers)
		if par.SamplingMS > 0 {
			par.SamplingSpeedup = seq.SamplingMS / par.SamplingMS
		}
		par.MatchesSequential = parOut == seqOut

		for _, c := range []SamplingCell{seq, par} {
			t.Row(c.Dataset, fmt.Sprint(c.Rows), fmt.Sprint(c.Cols), fmt.Sprint(c.Workers),
				fmt.Sprintf("%.1fms", c.SamplingMS), fmt.Sprintf("%.1fms", c.NcoverMS),
				fmt.Sprintf("%.1fms", c.InversionMS), fmt.Sprintf("%.1fms", c.TotalMS),
				fmt.Sprintf("%.2fx", c.SamplingSpeedup), fmt.Sprint(c.MatchesSequential))
		}
		rep.Cells = append(rep.Cells, seq, par)
	}
	return rep
}

// WriteSamplingJSON writes the report as schema-versioned indented JSON.
func WriteSamplingJSON(w io.Writer, rep SamplingReport) error {
	return report.WriteJSON(w, rep)
}

// RunSamplingToFile runs the sampling benchmark and writes the JSON
// report to path. The output file is created before the (multi-minute)
// benchmark so a bad path fails fast instead of discarding the run.
func RunSamplingToFile(w io.Writer, r *Runner, workers int, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rep := RunSampling(w, r, workers)
	if err := WriteSamplingJSON(f, rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Sampling is the fdbench experiment wrapper around RunSampling with the
// default worker count (NumCPU).
func Sampling(w io.Writer, r *Runner) { RunSampling(w, r, 0) }
