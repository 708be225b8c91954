// Command fddiscover runs FD discovery on a CSV file.
//
// Usage:
//
//	fddiscover [flags] file.csv
//
//	-algo euler|aidfd|hyfd|tane|fun|dfd|fdep|depminer|fastfds|kivinen
//	-sep ';'                           field separator (default ',')
//	-no-header                         first row is data, not attribute names
//	-th 0.01                           EulerFD/AID-FD growth-rate threshold
//	-queues 6                          EulerFD MLFQ depth
//	-exhaustive                        EulerFD: sample every window (exact)
//	-workers N                         EulerFD worker pool (0 = GOMAXPROCS, 1 = sequential)
//	-stats                             print run statistics to stderr
//	-check                             also run the exact oracle and report F1
//
// Approximate mode (any of these flags selects it):
//
//	-measure g3|g1|pdep|tau            error measure (default g3)
//	-eps 0.05                          threshold mode: keep FDs with error <= eps
//	-topk 10                           top-k mode: the k best-scoring candidates
//
// Ensemble mode (-ensemble N selects it):
//
//	-ensemble 5                        vote N seeded EulerFD runs, report confidences
//	-seed 42                           base seed (also perturbs a single euler run)
//
// Quality mode (-quality selects it):
//
//	-quality                           data-quality report: redundancy ranking,
//	                                   violations, repairs, normalization advice
//	-topk 5                            how many ranked dependencies to analyze
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"eulerfd"
	"eulerfd/internal/algo"
	"eulerfd/internal/dataset"
	"eulerfd/internal/ensemble"
	"eulerfd/internal/fdset"
	"eulerfd/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func attrName(attrs []string, i int) string {
	if i >= 0 && i < len(attrs) {
		return attrs[i]
	}
	return fmt.Sprintf("#%d", i)
}

// algoIDs renders the registered algorithm IDs for the usage string.
func algoIDs() string {
	ids := algo.IDs()
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = string(id)
	}
	return strings.Join(names, ", ")
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fddiscover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	algoFlag := fs.String("algo", "euler", "algorithm: "+algoIDs())
	sep := fs.String("sep", ",", "field separator")
	noHeader := fs.Bool("no-header", false, "treat the first row as data")
	th := fs.Float64("th", 0.01, "growth-rate threshold (euler, aidfd)")
	queues := fs.Int("queues", 6, "EulerFD MLFQ queue count")
	exhaustive := fs.Bool("exhaustive", false, "EulerFD: exhaust all sampling windows (exact)")
	workers := fs.Int("workers", 0, "EulerFD: worker-pool size for ncover admission and inversion (0 = GOMAXPROCS, 1 = sequential)")
	stats := fs.Bool("stats", false, "print run statistics to stderr")
	check := fs.Bool("check", false, "run the exact oracle too and report F1")
	asJSON := fs.Bool("json", false, "emit the FDs as a JSON array")
	target := fs.String("target", "", "only print FDs whose RHS is this attribute (the DMS sensitive-attribute query)")
	measure := fs.String("measure", "", "approximate mode: error measure (g3, g1, pdep, tau)")
	eps := fs.Float64("eps", 0.05, "approximate threshold mode: error budget in [0, 1]")
	topk := fs.Int("topk", 0, "approximate top-k mode: number of best-scoring FDs (0 = threshold mode)")
	ensembleN := fs.Int("ensemble", 0, "ensemble mode: vote this many seeded EulerFD runs (0 = single run)")
	qualityMode := fs.Bool("quality", false, "quality mode: discover the cover, then report redundancy ranking, violations, repairs, and normalization advice")
	seed := fs.Uint64("seed", 0, "EulerFD sampling-schedule seed (0 = canonical schedule); ensemble members derive from it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Any approx flag switches the command into approximate mode
	// (-topk doubles as the quality ranking bound under -quality).
	approx := *measure != "" || (*topk > 0 && !*qualityMode)
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "eps" {
			approx = true
		}
	})

	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: fddiscover [flags] file.csv")
		fs.PrintDefaults()
		return 2
	}
	opt := dataset.DefaultCSVOptions()
	opt.HasHeader = !*noHeader
	if len(*sep) != 1 {
		fmt.Fprintln(stderr, "fddiscover: -sep must be a single character")
		return 2
	}
	opt.Comma = rune((*sep)[0])

	rel, err := dataset.ReadCSVFile(fs.Arg(0), opt)
	if err != nil {
		fmt.Fprintln(stderr, "fddiscover:", err)
		return 1
	}

	if approx && *ensembleN > 0 {
		fmt.Fprintln(stderr, "fddiscover: -ensemble cannot be combined with approximate-mode flags")
		return 2
	}
	if *qualityMode {
		if approx || *ensembleN > 0 {
			fmt.Fprintln(stderr, "fddiscover: -quality cannot be combined with approximate- or ensemble-mode flags")
			return 2
		}
		eopt := eulerfd.DefaultOptions()
		eopt.ThNcover, eopt.ThPcover = *th, *th
		eopt.NumQueues = *queues
		eopt.ExhaustWindows = *exhaustive
		eopt.Workers = *workers
		eopt.Seed = *seed
		qopt := eulerfd.DefaultQualityOptions()
		if *topk > 0 {
			qopt.TopK = *topk
		}
		return runQuality(rel, eopt, qopt, *asJSON, *stats, stdout, stderr)
	}
	if approx {
		return runApprox(rel, *measure, *eps, *topk, *asJSON, *stats, stdout, stderr)
	}
	if *ensembleN > 0 {
		eopt := eulerfd.DefaultOptions()
		eopt.ThNcover, eopt.ThPcover = *th, *th
		eopt.NumQueues = *queues
		eopt.ExhaustWindows = *exhaustive
		eopt.Workers = *workers
		eopt.Ensemble = *ensembleN
		eopt.Seed = *seed
		return runEnsemble(rel, eopt, *asJSON, *stats, stdout, stderr)
	}

	id := algo.ID(*algoFlag)
	if _, ok := algo.Lookup(id); !ok {
		fmt.Fprintf(stderr, "fddiscover: unknown algorithm %q (have: %s)\n", *algoFlag, algoIDs())
		return 2
	}
	tun := algo.DefaultTuning()
	tun.Euler.ThNcover, tun.Euler.ThPcover = *th, *th
	tun.Euler.NumQueues = *queues
	tun.Euler.ExhaustWindows = *exhaustive
	tun.Euler.Workers = *workers
	tun.Euler.Seed = *seed
	tun.AIDFD.ThNcover = *th

	start := time.Now()
	fds, detail, err := algo.Run(context.Background(), id, rel, tun)
	if err != nil {
		fmt.Fprintln(stderr, "fddiscover:", err)
		return 1
	}
	elapsed := time.Since(start)

	if *target != "" {
		rhs := rel.AttrIndex(*target)
		if rhs < 0 {
			fmt.Fprintf(stderr, "fddiscover: unknown attribute %q\n", *target)
			return 2
		}
		var kept []fdset.FD
		fds.ForEach(func(fd fdset.FD) {
			if fd.RHS == rhs {
				kept = append(kept, fd)
			}
		})
		fds = fdset.NewSet(kept...)
	}

	if *asJSON {
		encJSON := json.NewEncoder(stdout)
		encJSON.SetIndent("", "  ")
		if err := encJSON.Encode(eulerfd.Docs(fds, rel.Attrs)); err != nil {
			fmt.Fprintln(stderr, "fddiscover:", err)
			return 1
		}
	} else {
		for _, fd := range fds.Slice() {
			fmt.Fprintln(stdout, fd.Format(rel.Attrs))
		}
	}
	if *stats {
		fmt.Fprintf(stderr, "%s: %d rows × %d cols, %d FDs in %s (%s)\n",
			id, rel.NumRows(), rel.NumCols(), fds.Len(), elapsed.Round(time.Microsecond), detail)
	}
	if *check {
		truth, _, err := algo.Run(context.Background(), algo.HyFD, rel, algo.DefaultTuning())
		if err != nil {
			fmt.Fprintln(stderr, "fddiscover: oracle:", err)
			return 1
		}
		r := metrics.Evaluate(fds, truth)
		fmt.Fprintf(stderr, "accuracy vs exact (%d FDs): precision=%.4f recall=%.4f F1=%.4f\n",
			truth.Len(), r.Precision, r.Recall, r.F1)
	}
	return 0
}

// ensembleDoc is the -json output shape of one voted candidate.
type ensembleDoc struct {
	LHS        []string `json:"lhs"`
	RHS        string   `json:"rhs"`
	Confidence float64  `json:"confidence"`
	Votes      int      `json:"votes"`
	G3         float64  `json:"g3"`
	Suspect    bool     `json:"suspect"`
}

// runEnsemble handles -ensemble N: vote N seeded runs and print every
// candidate with its confidence, strongest first, flagging candidates
// the exact g3 cross-check refutes.
func runEnsemble(rel *dataset.Relation, opt eulerfd.Options, asJSON, stats bool, stdout, stderr io.Writer) int {
	start := time.Now()
	res, err := eulerfd.DiscoverEnsemble(rel, opt)
	if err != nil {
		fmt.Fprintln(stderr, "fddiscover:", err)
		return 1
	}
	elapsed := time.Since(start)
	byConf := append([]eulerfd.EnsembleFD(nil), res.FDs...)
	ensemble.SortByConfidence(byConf)

	if asJSON {
		docs := make([]ensembleDoc, 0, len(byConf))
		for _, f := range byConf {
			d := ensembleDoc{RHS: attrName(rel.Attrs, f.FD.RHS), LHS: []string{},
				Confidence: f.Confidence, Votes: f.Votes, G3: f.G3, Suspect: f.Suspect}
			for _, a := range f.FD.LHS.Attrs() {
				d.LHS = append(d.LHS, attrName(rel.Attrs, a))
			}
			docs = append(docs, d)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fmt.Fprintln(stderr, "fddiscover:", err)
			return 1
		}
	} else {
		for _, f := range byConf {
			line := fmt.Sprintf("%s  conf=%.4f votes=%d/%d", f.FD.Format(rel.Attrs), f.Confidence, f.Votes, res.Members)
			if f.Suspect {
				line += fmt.Sprintf("  SUSPECT g3=%.6f", f.G3)
			}
			fmt.Fprintln(stdout, line)
		}
	}
	if stats {
		fmt.Fprintf(stderr, "euler-ensemble: %d rows × %d cols, %d candidates (majority %d, suspects %d) in %s (members=%d seed=%d)\n",
			rel.NumRows(), rel.NumCols(), res.Stats.Candidates, res.Stats.MajoritySize, res.Stats.Suspects,
			elapsed.Round(time.Microsecond), res.Members, res.Seed)
	}
	return 0
}

// runQuality handles -quality: discover the exact cover, then print the
// data-quality report — the redundancy-ranked top dependencies, their
// violating clusters and repair plans, and normalization advice. -json
// emits the pinned quality.Report wire shape, identical to what
// fdserve's /quality endpoint returns (minus the session version).
func runQuality(rel *dataset.Relation, opt eulerfd.Options, qopt eulerfd.QualityOptions, asJSON, stats bool, stdout, stderr io.Writer) int {
	start := time.Now()
	rep, err := eulerfd.AnalyzeQuality(rel, opt, qopt)
	if err != nil {
		fmt.Fprintln(stderr, "fddiscover:", err)
		return 1
	}
	elapsed := time.Since(start)

	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "fddiscover:", err)
			return 1
		}
	} else {
		fmt.Fprintf(stdout, "top %d dependencies by redundancy explained:\n", rep.K)
		for i, rf := range rep.Ranked {
			status := "exact"
			if !rf.Exact {
				status = "approximate"
			}
			fmt.Fprintf(stdout, "%2d. %s  redundant_rows=%d score=%.4f (%s)\n",
				i+1, rf.FD.Format(rel.Attrs), rf.RedundantRows, rf.Score, status)
		}
		for i := range rep.Violations {
			v, r := rep.Violations[i], rep.Repairs[i]
			fmt.Fprintf(stdout, "violations of %s: %d rows in %d clusters; repair cost %d\n",
				v.FD.Format(rel.Attrs), v.ViolatingRows, v.Clusters, r.Cost)
			for _, step := range r.Steps {
				fmt.Fprintf(stdout, "  rows %v adopt the value of row %d (%d total)\n",
					step.Rows, step.Adopt, step.RowsTotal)
			}
		}
		n := rep.Normalization
		switch {
		case n.Skipped:
			fmt.Fprintln(stdout, "normalization: skipped (cover too large)")
		case n.BCNF:
			fmt.Fprintln(stdout, "normalization: schema is in BCNF")
		default:
			fmt.Fprintf(stdout, "normalization: %s violates BCNF; decompose %s\n",
				n.Violation.Format(rel.Attrs), n.FormatDecomposition(rel.Attrs))
		}
		for _, k := range n.Keys {
			fmt.Fprintf(stdout, "candidate key: %s\n", fdset.NewAttrSet(k...).Names(rel.Attrs))
		}
	}
	if stats {
		fmt.Fprintf(stderr, "quality: %d rows × %d cols, k=%d, %d violating rows, repair cost %d in %s\n",
			rep.Rows, len(rep.Attrs), rep.K, rep.TotalViolatingRows, rep.TotalRepairCost,
			elapsed.Round(time.Microsecond))
	}
	return 0
}

// scoredDoc is the -json output shape of one approximate dependency.
type scoredDoc struct {
	LHS   []string `json:"lhs"`
	RHS   string   `json:"rhs"`
	Score float64  `json:"score"`
}

// runApprox handles the -measure/-eps/-topk mode: error-tolerant scoring
// through the public DiscoverApprox API.
func runApprox(rel *dataset.Relation, measure string, eps float64, topk int, asJSON, stats bool, stdout, stderr io.Writer) int {
	m, err := eulerfd.ParseMeasure(measure)
	if err != nil {
		fmt.Fprintln(stderr, "fddiscover:", err)
		return 2
	}
	opt := eulerfd.DefaultOptions()
	opt.Epsilon = eps
	opt.TopK = topk
	start := time.Now()
	res, err := eulerfd.DiscoverApprox(rel, m, opt)
	if err != nil {
		fmt.Fprintln(stderr, "fddiscover:", err)
		return 1
	}
	elapsed := time.Since(start)

	if asJSON {
		docs := make([]scoredDoc, 0, len(res.FDs))
		for _, sf := range res.FDs {
			d := scoredDoc{RHS: attrName(rel.Attrs, sf.FD.RHS), LHS: []string{}, Score: sf.Score}
			for _, a := range sf.FD.LHS.Attrs() {
				d.LHS = append(d.LHS, attrName(rel.Attrs, a))
			}
			docs = append(docs, d)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fmt.Fprintln(stderr, "fddiscover:", err)
			return 1
		}
	} else {
		for _, sf := range res.FDs {
			fmt.Fprintf(stdout, "%s  score=%.6f\n", sf.FD.Format(rel.Attrs), sf.Score)
		}
	}
	if stats {
		mode := fmt.Sprintf("eps=%g", eps)
		if topk > 0 {
			mode = fmt.Sprintf("k=%d", topk)
		}
		fmt.Fprintf(stderr, "%s: %d rows × %d cols, %d scored FDs in %s (measure=%s %s, %d candidates scored)\n",
			res.Algo, rel.NumRows(), rel.NumCols(), len(res.FDs),
			elapsed.Round(time.Microsecond), res.Measure, mode, res.Stats.Candidates)
	}
	return 0
}
