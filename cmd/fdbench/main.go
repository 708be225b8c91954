// Command fdbench regenerates the tables and figures of the paper's
// evaluation on the synthetic stand-in datasets, and writes the
// repository's benchmark report (BENCH_report.json).
//
// Usage:
//
//	fdbench -list
//	fdbench -exp table3        # one experiment
//	fdbench -exp all           # everything, in paper order
//	fdbench -exp fig6 -budget 30s
//	fdbench -exp sampling -workers 8        # one report group: sampling, ensemble,
//	                                        # incremental or quality
//	fdbench -report BENCH_report.json       # every report group, plus the JSON report
//	fdbench -exp sampling -cpuprofile cpu.out -memprofile mem.out
//	                                        # profile any run with go tool pprof
//
// -workers sizes EulerFD's worker pool: 0 means GOMAXPROCS, except in the
// sampling group, whose Workers=N cells run at max(NumCPU, 4) so the pool
// runs even on small machines; 1 is the sequential path.
//
// A report group exits 1 when a cell fails or an invariant breaks (a
// Workers=N cover of the sampling group that differs from its Workers=1
// cover).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"eulerfd/internal/bench"
	"eulerfd/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list experiment ids and exit")
	exp := fs.String("exp", "", "experiment id (table3, fig6..fig11, table5, sampling, ensemble, incremental, quality, all)")
	budget := fs.Duration("budget", 2*time.Minute, "per-cell time budget (0 = unlimited)")
	workers := fs.Int("workers", 0, "EulerFD worker-pool size (0 = GOMAXPROCS, or max(NumCPU, 4) for the sampling group's Workers=N cells; 1 = sequential)")
	reportPath := fs.String("report", "", "run every report group and write the JSON report (BENCH_report.json) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range bench.ExperimentIDs {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *exp == "" && *reportPath == "" {
		fmt.Fprintln(stderr, "usage: fdbench -exp <id>|all | -report FILE  (see -list)")
		return 2
	}

	stopCPU, err := prof.StartCPU(*cpuProfile)
	if err != nil {
		fmt.Fprintln(stderr, "fdbench:", err)
		return 1
	}
	exit := func(code int) int {
		if err := stopCPU(); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return 1
		}
		if err := prof.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return 1
		}
		return code
	}

	runner := bench.NewRunner()
	runner.Budget = *budget
	runner.Tuning.Euler.Workers = *workers

	if *reportPath != "" {
		if err := bench.RunReport(stdout, runner, *reportPath); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *reportPath)
	}
	if *exp == "" {
		return exit(0)
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = bench.ExperimentIDs
	}
	for i, id := range ids {
		fn, ok := bench.Experiments[id]
		if !ok {
			fmt.Fprintf(stderr, "fdbench: unknown experiment %q (see -list)\n", id)
			return exit(2)
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		start := time.Now()
		if _, err := fn(stdout, runner); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "[%s completed in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return exit(0)
}
