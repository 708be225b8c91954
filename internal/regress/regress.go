// Package regress is the regression harness that turns the repo's
// discovery stack into a CI gate. A canonical suite of deterministic
// datasets (seeded internal/gen profiles plus the committed
// internal/datasets corpora) is run through EulerFD; per cell the harness
// records
//
//   - accuracy: precision/recall/F1 of EulerFD's output against the exact
//     ground truth from internal/tane (scored by internal/metrics), plus
//     cover sizes and double-cycle counters — all bit-identical across
//     runs and machines by the determinism contract (DESIGN.md I1–I4), so
//     they are gated by exact match; and
//   - performance: median-of-N wall times per module (sampling / ncover /
//     inversion / total) — inherently noisy, so they are gated by relative
//     thresholds, and only when the machine shape (NumCPU, GOMAXPROCS,
//     Workers) matches the baseline's.
//
// cmd/fdregress records baselines (BASELINE.json), checks a tree against
// one, and diffs two recorded files.
package regress

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"eulerfd/internal/afd"
	"eulerfd/internal/algo"
	"eulerfd/internal/bench"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/datasets"
	"eulerfd/internal/ensemble"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/metrics"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/quality"
)

// Source is one suite cell: a named deterministic relation.
type Source struct {
	Name  string
	Build func() *dataset.Relation
}

// DefaultSuite returns the canonical regression cells: the registry
// corpora small enough for TANE ground truth to stay sub-second (the
// exact lattice blows up past ~13 columns at these row counts; adult and
// letter are benchmark-only), plus seeded gen profiles covering the
// planted-FD, accidental-agreement, and block-correlated families.
func DefaultSuite() []Source {
	fromRegistry := func(name string) Source {
		return Source{Name: name, Build: func() *dataset.Relation {
			d, err := datasets.ByName(name)
			if err != nil {
				panic(err) // registry names are compile-time constants here
			}
			return d.Build()
		}}
	}
	suite := []Source{}
	for _, name := range []string{
		"iris", "balance-scale", "chess", "abalone", "nursery",
		"breast-cancer", "bridges", "echocardiogram",
	} {
		suite = append(suite, fromRegistry(name))
	}
	suite = append(suite,
		Source{Name: "patient", Build: gen.Patient},
		Source{Name: "gen-fd-reduced-800x10", Build: func() *dataset.Relation {
			return gen.FDReduced("gen-fd-reduced-800x10", 800, 10, 0xfdc0de)
		}},
		Source{Name: "gen-wide-sparse-200x12", Build: func() *dataset.Relation {
			return gen.WideSparseTuned("gen-wide-sparse-200x12", 200, 12, 0.25, 0.15, 0x5eed5)
		}},
	)
	return suite
}

// Accuracy is the exact-match-gated half of a cell: EulerFD's quality
// against the TANE ground truth plus the double-cycle counters. Every
// field is deterministic for a fixed dataset and Options.
type Accuracy struct {
	TruePositives  int     `json:"tp"`
	FalsePositives int     `json:"fp"`
	FalseNegatives int     `json:"fn"`
	Precision      float64 `json:"precision"`
	Recall         float64 `json:"recall"`
	F1             float64 `json:"f1"`
	FDs            int     `json:"fds"`       // EulerFD output size (= PcoverSize)
	TruthFDs       int     `json:"truth_fds"` // exact minimal cover size
	NcoverSize     int     `json:"ncover_size"`
	PcoverSize     int     `json:"pcover_size"`
	AgreeSets      int     `json:"agree_sets"`
	PairsCompared  int     `json:"pairs_compared"`
	SampleBatches  int     `json:"sample_batches"`
	Inversions     int     `json:"inversions"` // second-cycle iterations
}

// Perf is the threshold-gated half of a cell: median-of-N wall times per
// engine module, in milliseconds.
type Perf struct {
	Runs        int     `json:"runs"`
	SamplingMS  float64 `json:"sampling_ms"`
	NcoverMS    float64 `json:"ncover_ms"`
	InversionMS float64 `json:"inversion_ms"`
	TotalMS     float64 `json:"total_ms"`
}

// CellResult is one measured suite cell.
type CellResult struct {
	Dataset  string   `json:"dataset"`
	Rows     int      `json:"rows"`
	Cols     int      `json:"cols"`
	Accuracy Accuracy `json:"accuracy"`
	Perf     Perf     `json:"perf"`
}

// Baseline is the BASELINE.json document: the full suite result plus the
// machine shape needed to decide whether wall times are comparable.
type Baseline struct {
	Schema     int          `json:"schema"`
	Suite      string       `json:"suite"`
	NumCPU     int          `json:"num_cpu"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Workers    int          `json:"workers"`
	Cells      []CellResult `json:"cells"`
	// AFD is the approximate-FD cell; omitted by baselines recorded
	// before the AFD engine existed (Diff then only warns).
	AFD *AFDCell `json:"afd,omitempty"`
	// Ensemble is the confidence-voting cell; omitted by baselines
	// recorded before the ensemble engine existed (Diff then only warns).
	Ensemble *EnsembleCell `json:"ensemble,omitempty"`
	// Incremental is the mutation-maintenance cell; omitted by baselines
	// recorded before the mutation log existed (Diff then only warns).
	Incremental *IncrementalCell `json:"incremental,omitempty"`
	// Quality is the data-quality report cell; omitted by baselines
	// recorded before the quality subsystem existed (Diff then only warns).
	Quality *QualityCell `json:"quality,omitempty"`
}

// AFDCell is the approximate-FD regression cell: threshold discovery on
// one fixed corpus at a fixed error budget. The scored results render as
// canonical strings with full float precision and are gated by exact
// match — the AFD engine computes g3 from integer violation counts with
// a single final division, so scores are bit-identical across runs and
// machines.
type AFDCell struct {
	Dataset string   `json:"dataset"`
	Measure string   `json:"measure"`
	Epsilon float64  `json:"eps"`
	FDs     []string `json:"fds"` // "lhs -> rhs score=…" in canonical FD order
}

// afdCellCorpus/afdCellEps pin the AFD cell's inputs. bridges is small
// enough for an exhaustive lattice walk yet dirty enough that eps = 0.1
// admits genuinely approximate dependencies alongside exact ones.
const (
	afdCellCorpus = "bridges"
	afdCellEps    = 0.1
)

// runAFDCell measures the AFD regression cell.
func runAFDCell() *AFDCell {
	d, err := datasets.ByName(afdCellCorpus)
	if err != nil {
		panic(err) // registry name is a compile-time constant here
	}
	enc := preprocess.Encode(d.Build())
	opt := afd.DefaultOptions()
	opt.Measure = afd.G3
	opt.Epsilon = afdCellEps
	opt.TopK = 0
	fds, _, err := afd.Threshold(context.Background(), enc, opt)
	if err != nil {
		panic(fmt.Sprintf("regress: afd cell failed: %v", err)) // background ctx, valid options
	}
	cell := &AFDCell{Dataset: afdCellCorpus, Measure: string(afd.G3), Epsilon: afdCellEps}
	for _, sf := range fds {
		cell.FDs = append(cell.FDs, fmt.Sprintf("%s score=%.9f", sf.FD.Format(enc.Attrs), sf.Score))
	}
	return cell
}

// EnsembleCell is the confidence-voting regression cell: a seeded
// N-member ensemble with the g3 cross-check on one fixed corpus. Every
// candidate renders as a canonical string with full float precision and
// is gated by exact match — votes are integer counts, confidence is a
// single final division, and the merge order is canonical, so the
// strings are bit-identical across runs, machines, and pool sizes.
type EnsembleCell struct {
	Dataset string   `json:"dataset"`
	Members int      `json:"members"`
	Seed    uint64   `json:"seed"`
	FDs     []string `json:"fds"` // "lhs -> rhs conf=… votes=… g3=… suspect=…" in canonical FD order
}

// ensembleCellCorpus/Members/Seed pin the ensemble cell's inputs. chess
// is the suite corpus whose default-threshold run keeps a known false
// positive, so the cell exercises disagreeing members and a non-empty
// suspect set.
const (
	ensembleCellCorpus  = "chess"
	ensembleCellMembers = 5
	ensembleCellSeed    = 42
)

// runEnsembleCell measures the ensemble regression cell.
func runEnsembleCell() *EnsembleCell {
	d, err := datasets.ByName(ensembleCellCorpus)
	if err != nil {
		panic(err) // registry name is a compile-time constant here
	}
	enc := preprocess.Encode(d.Build())
	cfg := ensemble.Config{Euler: core.DefaultOptions(), CrossCheck: true}
	cfg.Euler.Ensemble = ensembleCellMembers
	cfg.Euler.Seed = ensembleCellSeed
	res, err := ensemble.Discover(context.Background(), enc, cfg, nil)
	if err != nil {
		panic(fmt.Sprintf("regress: ensemble cell failed: %v", err)) // background ctx, valid options
	}
	cell := &EnsembleCell{Dataset: ensembleCellCorpus, Members: ensembleCellMembers, Seed: ensembleCellSeed}
	for _, sf := range res.FDs {
		cell.FDs = append(cell.FDs, fmt.Sprintf("%s conf=%.9f votes=%d/%d g3=%.9f suspect=%v",
			sf.FD.Format(enc.Attrs), sf.Confidence, sf.Votes, res.Members, sf.G3, sf.Suspect))
	}
	return cell
}

// IncrementalCell is the mutation-maintenance regression cell: one
// fixed corpus driven through bootstrap → mixed batch (delete, update,
// append) → final append, with the maintained cover rendered in
// canonical order. Gated by exact match — the delta engine's parallel
// scan merges chunks in position order and its cover patch merges
// deterministically, so the cover is bit-identical across runs,
// machines, and Workers values.
type IncrementalCell struct {
	Dataset string   `json:"dataset"`
	Version int64    `json:"version"`
	Rows    int      `json:"rows"`
	FDs     []string `json:"fds"` // "lhs -> rhs" in canonical FD order
}

// incCellCorpus pins the incremental cell's input. bridges is small
// enough to keep the cell sub-second yet wide and dirty enough that
// deletes retire non-FD witnesses and updates flip agree sets.
const incCellCorpus = "bridges"

// runIncrementalCell measures the mutation-maintenance regression cell.
func runIncrementalCell() *IncrementalCell {
	d, err := datasets.ByName(incCellCorpus)
	if err != nil {
		panic(err) // registry name is a compile-time constant here
	}
	rel := d.Build()
	inc, err := core.NewIncremental(rel.Name, rel.Attrs, core.DefaultOptions())
	if err != nil {
		panic(fmt.Sprintf("regress: incremental cell failed: %v", err))
	}
	// Bootstrap on roughly the first two thirds, then one mixed batch
	// (delete scattered ids, rewrite one row, append half the holdout),
	// then append the rest — the append → delete → append shape.
	cut1 := len(rel.Rows) * 2 / 3
	cut2 := cut1 + (len(rel.Rows)-cut1)/2
	if _, err := inc.Append(rel.Rows[:cut1]); err != nil {
		panic(fmt.Sprintf("regress: incremental cell failed: %v", err))
	}
	mixed := core.MutationBatch{Mutations: []core.Mutation{
		core.DeleteOp(3, 17, int64(cut1-1)),
		core.UpdateOp([]int64{7}, [][]string{rel.Rows[cut1]}),
		core.AppendOp(rel.Rows[cut1:cut2]),
	}}
	if _, err := inc.Apply(mixed); err != nil {
		panic(fmt.Sprintf("regress: incremental cell failed: %v", err))
	}
	if _, err := inc.Append(rel.Rows[cut2:]); err != nil {
		panic(fmt.Sprintf("regress: incremental cell failed: %v", err))
	}
	cell := &IncrementalCell{Dataset: incCellCorpus, Version: inc.Version(), Rows: inc.NumRows()}
	for _, f := range inc.FDs().Slice() {
		cell.FDs = append(cell.FDs, f.Format(rel.Attrs))
	}
	return cell
}

// QualityCell is the data-quality regression cell: the full
// quality.Analyze pipeline (redundancy ranking, violation tallies,
// repair cost, normalization advice) on one fixed corpus at a fixed k.
// Gated by exact match — the ranking walks candidates in canonical
// order, cluster walks are first-occurrence ordered, and scores divide
// integer tallies once at the end, so every rendered string is
// bit-identical across runs, machines, and Workers values.
type QualityCell struct {
	Dataset       string   `json:"dataset"`
	TopK          int      `json:"top_k"`
	Ranked        []string `json:"ranked"` // "lhs -> rhs score=… redundant=… exact=…" in rank order
	ViolatingRows int      `json:"violating_rows"`
	RepairCost    int      `json:"repair_cost"`
	Decomposition string   `json:"decomposition"`
}

// qualityCellCorpus/TopK pin the quality cell's inputs. bridges is dirty
// enough that the top of the redundancy ranking mixes exact and near
// dependencies, so violations, repairs, and the decomposition advice are
// all non-trivially exercised.
const (
	qualityCellCorpus = "bridges"
	qualityCellTopK   = 3
)

// runQualityCell measures the data-quality regression cell.
func runQualityCell() *QualityCell {
	d, err := datasets.ByName(qualityCellCorpus)
	if err != nil {
		panic(err) // registry name is a compile-time constant here
	}
	enc := preprocess.Encode(d.Build())
	cover, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
	qopt := quality.DefaultOptions()
	qopt.TopK = qualityCellTopK
	rep, err := quality.Analyze(context.Background(), enc, cover, nil, qopt)
	if err != nil {
		panic(fmt.Sprintf("regress: quality cell failed: %v", err)) // background ctx, valid options
	}
	cell := &QualityCell{
		Dataset:       qualityCellCorpus,
		TopK:          qualityCellTopK,
		ViolatingRows: rep.TotalViolatingRows,
		RepairCost:    rep.TotalRepairCost,
		Decomposition: rep.Normalization.FormatDecomposition(enc.Attrs),
	}
	for _, r := range rep.Ranked {
		cell.Ranked = append(cell.Ranked, fmt.Sprintf("%s score=%.9f redundant=%d exact=%v",
			r.FD.Format(enc.Attrs), r.Score, r.RedundantRows, r.Exact))
	}
	return cell
}

// Config controls a suite run.
type Config struct {
	// Runs is how many timed EulerFD executions feed each perf median.
	// Accuracy comes from the last run (the rest are bit-identical by
	// the determinism contract). Minimum 1.
	Runs int
	// Workers is the EulerFD worker-pool size (0 = runtime.GOMAXPROCS(0)).
	// Recorded in the baseline with NumCPU and GOMAXPROCS: wall times are
	// only compared across equal machine shapes.
	Workers int
}

// Run executes the suite and returns the measured baseline. Progress
// lines (one per cell) go to w when it is non-nil.
func Run(suite []Source, cfg Config, w io.Writer) *Baseline {
	if cfg.Runs < 1 {
		cfg.Runs = 1
	}
	opt := core.DefaultOptions()
	opt.Workers = cfg.Workers
	b := &Baseline{
		Schema:     bench.SchemaVersion,
		Suite:      "default",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    cfg.Workers,
	}
	for _, src := range suite {
		cell := runCell(src, opt, cfg.Runs)
		b.Cells = append(b.Cells, cell)
		if w != nil {
			fmt.Fprintf(w, "%-24s rows=%-6d cols=%-4d F1=%.4f fds=%-6d total=%.1fms\n",
				cell.Dataset, cell.Rows, cell.Cols, cell.Accuracy.F1, cell.Accuracy.FDs, cell.Perf.TotalMS)
		}
	}
	b.AFD = runAFDCell()
	if w != nil {
		fmt.Fprintf(w, "afd:%-20s measure=%s eps=%g fds=%d\n",
			b.AFD.Dataset, b.AFD.Measure, b.AFD.Epsilon, len(b.AFD.FDs))
	}
	b.Ensemble = runEnsembleCell()
	if w != nil {
		fmt.Fprintf(w, "ensemble:%-15s members=%d seed=%d candidates=%d\n",
			b.Ensemble.Dataset, b.Ensemble.Members, b.Ensemble.Seed, len(b.Ensemble.FDs))
	}
	b.Incremental = runIncrementalCell()
	if w != nil {
		fmt.Fprintf(w, "incremental:%-12s version=%d rows=%d fds=%d\n",
			b.Incremental.Dataset, b.Incremental.Version, b.Incremental.Rows, len(b.Incremental.FDs))
	}
	b.Quality = runQualityCell()
	if w != nil {
		fmt.Fprintf(w, "quality:%-16s k=%d violating_rows=%d repair_cost=%d decomposition=%s\n",
			b.Quality.Dataset, b.Quality.TopK, b.Quality.ViolatingRows, b.Quality.RepairCost, b.Quality.Decomposition)
	}
	return b
}

// runCell scores one suite cell against the exact oracle and times it
// through the benchmark harness's timing loop: the perf medians are the
// loop's stage medians, and total_ms its wall-time median.
func runCell(src Source, opt core.Options, runs int) CellResult {
	enc := preprocess.Encode(src.Build())
	// The exact oracle dispatches through the algorithm registry — the
	// same code path the CLI and the HTTP service use.
	truth, _, err := algo.RunEncoded(context.Background(), algo.TANE, enc, algo.DefaultTuning())
	if err != nil {
		// Unreachable with a background context and a registered ID.
		panic(fmt.Sprintf("regress: exact oracle failed: %v", err))
	}
	var fds *fdset.Set
	var st core.Stats
	tm, _ := bench.TimeRuns(runs, func() (map[string]time.Duration, error) {
		fds, st = core.DiscoverEncoded(enc, opt)
		return bench.StageSplit(st), nil // discovery has no error path
	})
	m := metrics.Evaluate(fds, truth)
	return CellResult{
		Dataset: enc.Name,
		Rows:    st.Rows,
		Cols:    st.Cols,
		Accuracy: Accuracy{
			TruePositives:  m.TruePositives,
			FalsePositives: m.FalsePositives,
			FalseNegatives: m.FalseNegatives,
			Precision:      m.Precision,
			Recall:         m.Recall,
			F1:             m.F1,
			FDs:            fds.Len(),
			TruthFDs:       truth.Len(),
			NcoverSize:     st.NcoverSize,
			PcoverSize:     st.PcoverSize,
			AgreeSets:      st.AgreeSets,
			PairsCompared:  st.PairsCompared,
			SampleBatches:  st.SampleBatches,
			Inversions:     st.Inversions,
		},
		Perf: Perf{
			Runs:        runs,
			SamplingMS:  tm.LayersMS["sampling"],
			NcoverMS:    tm.LayersMS["ncover"],
			InversionMS: tm.LayersMS["inversion"],
			TotalMS:     tm.MedianMS,
		},
	}
}
