package bench

import (
	"fmt"
	"io"
	"math"

	"eulerfd/internal/algo"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/metrics"
	"eulerfd/internal/preprocess"
)

// Experiments maps experiment ids (as used by `fdbench -exp`) to runners.
// The paper experiments each regenerate one table or figure; the report
// groups (ReportGroups) also return the cells `fdbench -report` writes,
// and fail on a cell error or a broken invariant.
var Experiments = map[string]func(w io.Writer, r *Runner) ([]ReportCell, error){
	"table3":      paper(Table3),
	"fig6":        paper(Fig6),
	"fig7":        paper(Fig7),
	"fig8":        paper(Fig8),
	"fig9":        paper(Fig9),
	"fig10":       paper(Fig10),
	"fig11":       paper(Fig11),
	"table5":      paper(Table5),
	"sampling":    Sampling,
	"ensemble":    Ensemble,
	"incremental": Incremental,
	"quality":     Quality,
}

// ExperimentIDs lists the experiment ids in paper order, followed by the
// report groups, which are not from the paper.
var ExperimentIDs = append([]string{"table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "table5"}, ReportGroups...)

// paper adapts a paper experiment, which only renders its table.
func paper(fn func(io.Writer, *Runner)) func(io.Writer, *Runner) ([]ReportCell, error) {
	return func(w io.Writer, r *Runner) ([]ReportCell, error) {
		fn(w, r)
		return nil, nil
	}
}

// Table3 reproduces Table III: runtime and F1 of all five algorithms on
// the 19 benchmark datasets. Exact algorithms are skipped ("TL") on
// datasets where they are known to exceed any practical budget, mirroring
// the paper's TL/ML entries.
func Table3(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Table III: runtimes [s] and F1 scores on the benchmark stand-ins")
	fmt.Fprintln(w, "(TL = per-cell time budget exceeded, mirroring the paper's TL/ML)")
	ids := []algo.ID{algo.TANE, algo.Fdep, algo.HyFD, algo.AIDFD, algo.Euler}
	headers := []string{"dataset", "rows", "cols", "FDs"}
	for _, id := range ids {
		headers = append(headers, algoName(id))
	}
	t := NewTable(w, append(headers, "AID-F1", "Euler-F1"),
		[]int{16, 8, 6, 9, 10, 10, 10, 10, 10, 8, 9})
	for _, d := range datasets.All() {
		enc := preprocess.Encode(d.Build())
		// uniprot has no benchmark in the paper either: every exact
		// algorithm dies on it, so no F1 column is scoreable.
		var truth *fdset.Set
		if skipCell(algo.HyFD, d) == "" {
			truth = r.Truth(enc)
		}
		fdCount := "unknown"
		if truth != nil {
			fdCount = fmt.Sprint(truth.Len())
		}
		row := []string{d.Name, fmt.Sprint(enc.NumRows), fmt.Sprint(len(enc.Attrs)), fdCount}
		cells := map[algo.ID]Cell{}
		for _, id := range ids {
			c := Cell{Algo: id, Err: skipCell(id, d)}
			if c.Err == "" {
				c = r.Measure(id, enc, truth)
			}
			cells[id] = c
			if c.Err != "" {
				row = append(row, c.Err)
			} else {
				row = append(row, FmtTime(c.Time))
			}
		}
		t.Row(append(row, FmtF1(cells[algo.AIDFD]), FmtF1(cells[algo.Euler]))...)
	}
}

// paperSkips reproduces Table III's TL/ML entries exactly: the cells the
// paper's testbed could not complete within 4 hours / 32 GB.
var paperSkips = map[string]map[algo.ID]string{
	"lineitem":      {algo.TANE: "ML", algo.Fdep: "ML"},
	"weather":       {algo.TANE: "ML", algo.Fdep: "ML"},
	"fd-reduced-30": {algo.Fdep: "TL"},
	"plista":        {algo.TANE: "ML"},
	"flight":        {algo.TANE: "ML"},
	"uniprot":       {algo.TANE: "ML", algo.Fdep: "ML", algo.HyFD: "TL", algo.AIDFD: "ML"},
}

// skipCell returns the paper's TL/ML marker for cells the paper could not
// complete, plus a predictive "TL" for TANE on wide low-FD datasets
// (paper: 1149 s on letter, 10020 s on horse) that would dwarf the
// harness budget; every other cell runs. Empty string means run it.
func skipCell(id algo.ID, d datasets.Info) string {
	if reason, ok := paperSkips[d.Name][id]; ok {
		return reason
	}
	if id == algo.TANE && d.Cols >= 17 && d.Name != "fd-reduced-30" {
		return "TL"
	}
	return ""
}

// scalabilitySeries runs the four algorithms of a scalability figure over
// a sweep of relations and prints one row per sweep point.
func scalabilitySeries(w io.Writer, r *Runner, ids []algo.ID, points []*preprocess.Encoded, label func(e *preprocess.Encoded) string) {
	headers := []string{"point", "FDs"}
	widths := []int{12, 9}
	for _, id := range ids {
		headers = append(headers, algoName(id))
		widths = append(widths, 14)
	}
	t := NewTable(w, headers, widths)
	for _, enc := range points {
		truth := r.Truth(enc)
		row := []string{label(enc), fmt.Sprint(truth.Len())}
		for _, id := range ids {
			c := r.Measure(id, enc, truth)
			cell := FmtTime(c.Time)
			if c.Err != "" {
				cell = c.Err
			} else if c.HasTruth && c.F1 < 0.999 {
				cell += fmt.Sprintf("(%.2f)", c.F1)
			}
			row = append(row, cell)
		}
		t.Row(row...)
	}
}

// Fig6 reproduces Figure 6: row scalability on fd-reduced-30. The paper
// sweeps 50k..250k rows; the stand-in sweeps the same five relative steps
// of its scaled height.
func Fig6(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Figure 6: row scalability on fd-reduced-30 (runtime [s], F1 in parens when < 1)")
	d, _ := datasets.ByName("fd-reduced-30")
	base := d.Build()
	var points []*preprocess.Encoded
	for i := 1; i <= 5; i++ {
		h, _ := base.Head(base.NumRows() * i / 5)
		h.Name = fmt.Sprintf("%drows", h.NumRows())
		points = append(points, preprocess.Encode(h))
	}
	scalabilitySeries(w, r, []algo.ID{algo.TANE, algo.HyFD, algo.AIDFD, algo.Euler}, points,
		func(e *preprocess.Encoded) string { return e.Name })
}

// Fig7 reproduces Figure 7: row scalability on lineitem. The paper doubles
// rows 8k..4096k; the stand-in doubles from 1/64 of its height up to full.
func Fig7(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Figure 7: row scalability on lineitem (runtime [s], F1 in parens when < 1)")
	d, _ := datasets.ByName("lineitem")
	base := d.Build()
	var points []*preprocess.Encoded
	for n := base.NumRows() / 64; n <= base.NumRows(); n *= 2 {
		h, _ := base.Head(n)
		h.Name = fmt.Sprintf("%drows", h.NumRows())
		points = append(points, preprocess.Encode(h))
	}
	scalabilitySeries(w, r, []algo.ID{algo.HyFD, algo.AIDFD, algo.Euler}, points,
		func(e *preprocess.Encoded) string { return e.Name })
}

// colScalability implements Figures 8 and 9: column sweeps on a wide
// dataset, 10..60 columns in steps of 10.
func colScalability(w io.Writer, r *Runner, name string, ids []algo.ID) {
	d, _ := datasets.ByName(name)
	base := d.Build()
	var points []*preprocess.Encoded
	for c := 10; c <= 60 && c <= base.NumCols(); c += 10 {
		p, _ := base.Prefix(c)
		p.Name = fmt.Sprintf("%dcols", c)
		points = append(points, preprocess.Encode(p))
	}
	scalabilitySeries(w, r, ids, points,
		func(e *preprocess.Encoded) string { return e.Name })
}

// Fig8 reproduces Figure 8: column scalability on plista.
func Fig8(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Figure 8: column scalability on plista (runtime [s], F1 in parens when < 1)")
	colScalability(w, r, "plista", []algo.ID{algo.Fdep, algo.HyFD, algo.AIDFD, algo.Euler})
}

// Fig9 reproduces Figure 9: column scalability on uniprot.
func Fig9(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Figure 9: column scalability on uniprot (runtime [s], F1 in parens when < 1)")
	colScalability(w, r, "uniprot", []algo.ID{algo.Fdep, algo.HyFD, algo.AIDFD, algo.Euler})
}

// Fig10 reproduces Figure 10: EulerFD runtime and F1 as the MLFQ queue
// count sweeps 1..7 (capa ranges per Table IV) on adult, letter, plista,
// and flight.
func Fig10(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Figure 10: MLFQ parameter sweep (EulerFD runtime [s] / F1 per queue count)")
	names := []string{"adult", "letter", "plista", "flight"}
	headers := []string{"queues"}
	widths := []int{8}
	for _, n := range names {
		headers = append(headers, n)
		widths = append(widths, 18)
	}
	t := NewTable(w, headers, widths)
	encs := make([]*preprocess.Encoded, len(names))
	truths := make([]*fdset.Set, len(names))
	for i, n := range names {
		d, _ := datasets.ByName(n)
		encs[i] = preprocess.Encode(d.Build())
		truths[i] = r.Truth(encs[i])
	}
	for q := 1; q <= 7; q++ {
		row := []string{fmt.Sprint(q)}
		sweep := *r
		sweep.Tuning.Euler.NumQueues = q
		for i := range names {
			fds, elapsed := sweep.Run(algo.Euler, encs[i])
			f1 := metrics.Evaluate(fds, truths[i]).F1
			row = append(row, fmt.Sprintf("%s / %.3f", FmtTime(elapsed), f1))
		}
		t.Row(row...)
	}
}

// Fig11 reproduces Figure 11: runtime and F1 of EulerFD and AID-FD as the
// growth-rate thresholds sweep {0.1, 0.01, 0.001, 0} on flight,
// fd-reduced-30, ncvoter, and horse.
func Fig11(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Figure 11: threshold sweep (runtime [s] / F1 per Th value)")
	names := []string{"flight", "fd-reduced-30", "ncvoter", "horse"}
	thresholds := []float64{0.1, 0.01, 0.001, 0}
	for _, n := range names {
		d, _ := datasets.ByName(n)
		enc := preprocess.Encode(d.Build())
		truth := r.Truth(enc)
		fmt.Fprintf(w, "\n%s (%d rows × %d cols, %d FDs)\n", n, enc.NumRows, len(enc.Attrs), truth.Len())
		t := NewTable(w, []string{"Th", "AID-FD", "EulerFD"}, []int{10, 18, 18})
		for _, th := range thresholds {
			sweep := *r
			sweep.Tuning.AIDFD.ThNcover = th
			sweep.Tuning.Euler.ThNcover, sweep.Tuning.Euler.ThPcover = th, th
			afds, aTime := sweep.Run(algo.AIDFD, enc)
			aF1 := metrics.Evaluate(afds, truth).F1
			efds, eTime := sweep.Run(algo.Euler, enc)
			eF1 := metrics.Evaluate(efds, truth).F1

			t.Row(fmt.Sprint(th),
				fmt.Sprintf("%s / %.3f", FmtTime(aTime), aF1),
				fmt.Sprintf("%s / %.3f", FmtTime(eTime), eF1))
		}
	}
}

// Table5 reproduces Table V: the DMS fleet simulation. A generated fleet
// of relations spans the paper's row × column buckets; for each bucket the
// harness reports τ_e (EulerFD time / AID-FD time) and τ_a (EulerFD F1 /
// AID-FD F1), both weighted by √(R·C) as in Section V-G. Buckets whose
// relations are too large for the exact oracle report τ_e only, matching
// the "-" entries of the paper.
func Table5(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "Table V: simulated DMS fleet, τ_e / τ_a per bucket (τ_e < 1 means EulerFD faster)")
	rowBuckets := []struct {
		label string
		rows  int
	}{
		{"1~10", 8}, {"11~100", 64}, {"101~1000", 512}, {"1001~10000", 4096}, {"10001+", 12000},
	}
	colBuckets := []struct {
		label string
		cols  int
	}{
		{"1~10", 8}, {"11~50", 32}, {"51~100", 72}, {"100+", 128},
	}
	// The exact oracle is skipped where the paper also lacks benchmarks
	// (wide × tall corner).
	headers := []string{"rows\\cols"}
	widths := []int{12}
	for _, cb := range colBuckets {
		headers = append(headers, cb.label)
		widths = append(widths, 16)
	}
	t := NewTable(w, headers, widths)
	const perBucket = 2
	for _, rb := range rowBuckets {
		row := []string{rb.label}
		for _, cb := range colBuckets {
			var sumE, sumA, sumWeightT float64
			var sumF1E, sumF1A, sumWeightA float64
			// Ground truth is computed only where the paper also reports
			// τ_a: the exact oracle is impractical on the large × wide
			// fleet corner.
			truthFeasible := rb.rows*cb.cols <= 4096*32 && (cb.cols <= 50 || rb.rows <= 64)
			for i := 0; i < perBucket; i++ {
				name := fmt.Sprintf("dms-%s-%s-%d", rb.label, cb.label, i)
				rel := gen.DMSShape(name, rb.rows, cb.cols, int64(rb.rows*31+cb.cols*17+i))
				enc := preprocess.Encode(rel)
				weight := math.Sqrt(float64(rb.rows) * float64(cb.cols))

				efds, eTime := r.Run(algo.Euler, enc)
				afds, aTime := r.Run(algo.AIDFD, enc)
				sumE += eTime.Seconds() * weight
				sumA += aTime.Seconds() * weight
				sumWeightT += weight

				if truthFeasible {
					truth := r.Truth(enc)
					sumF1E += metrics.Evaluate(efds, truth).F1 * weight
					sumF1A += metrics.Evaluate(afds, truth).F1 * weight
					sumWeightA += weight
				}
			}
			tauE := sumE / math.Max(sumA, 1e-12)
			cell := fmt.Sprintf("%.3f / ", tauE)
			if sumWeightA > 0 && sumF1A > 0 {
				cell += fmt.Sprintf("%.3f", sumF1E/sumF1A)
			} else {
				cell += "-"
			}
			row = append(row, cell)
		}
		t.Row(row...)
	}
}
