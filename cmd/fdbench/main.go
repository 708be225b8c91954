// Command fdbench regenerates the tables and figures of the paper's
// evaluation on the synthetic stand-in datasets.
//
// Usage:
//
//	fdbench -list
//	fdbench -exp table3        # one experiment
//	fdbench -exp all           # everything, in paper order
//	fdbench -exp fig6 -budget 30s
//	fdbench -exp sampling -workers 8        # parallel sampling engine bench
//	fdbench -json BENCH_sampling.json       # same, plus machine-readable report
//	fdbench -exp afd                        # approximate-FD scoring bench
//	fdbench -afd-json BENCH_afd.json        # same, plus machine-readable report
//	fdbench -kernels-json BENCH_kernels.json  # hot-path kernel micro-bench
//	fdbench -ensemble-json BENCH_ensemble.json  # confidence-voting bench
//	fdbench -incremental-json BENCH_incremental.json  # delta vs rediscovery bench
//	fdbench -quality-json BENCH_quality.json  # data-quality report bench
//	fdbench -exp sampling -cpuprofile cpu.out -memprofile mem.out
//	                                        # profile any run with go tool pprof
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
	exp := fs.String("exp", "", "experiment id (table3, fig6..fig11, table5, sampling, all)")
	budget := fs.Duration("budget", 2*time.Minute, "per-cell time budget (0 = unlimited)")
	workers := fs.Int("workers", 0, "EulerFD worker-pool size (0 = all CPU cores, 1 = sequential)")
	jsonPath := fs.String("json", "", "run the sampling benchmark and write its report to this JSON file")
	afdJSONPath := fs.String("afd-json", "", "run the AFD scoring benchmark and write its report to this JSON file")
	kernelsJSONPath := fs.String("kernels-json", "", "run the kernel micro-benchmark and write its report to this JSON file")
	ensembleJSONPath := fs.String("ensemble-json", "", "run the ensemble voting benchmark and write its report to this JSON file")
	incrementalJSONPath := fs.String("incremental-json", "", "run the incremental maintenance benchmark and write its report to this JSON file")
	qualityJSONPath := fs.String("quality-json", "", "run the data-quality report benchmark and write its report to this JSON file")
	seed := fs.Uint64("seed", 0, "base seed of the ensemble benchmark")
	runs := fs.Int("runs", 0, "AFD/ensemble benchmark repetitions per cell (0 = default)")
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
	if *exp == "" && *jsonPath == "" && *afdJSONPath == "" && *kernelsJSONPath == "" && *ensembleJSONPath == "" && *incrementalJSONPath == "" && *qualityJSONPath == "" {
		fmt.Fprintln(stderr, "usage: fdbench -exp <id>|all  (see -list)")
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

	if *jsonPath != "" {
		if err := bench.RunSamplingToFile(stdout, runner, *workers, *jsonPath); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *jsonPath)
	}
	if *afdJSONPath != "" {
		if err := bench.RunAFDToFile(stdout, *runs, *afdJSONPath); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *afdJSONPath)
	}
	if *kernelsJSONPath != "" {
		if err := bench.RunKernelsToFile(stdout, *kernelsJSONPath); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *kernelsJSONPath)
	}
	if *ensembleJSONPath != "" {
		if err := bench.RunEnsembleToFile(stdout, *workers, *seed, *runs, *ensembleJSONPath); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *ensembleJSONPath)
	}
	if *incrementalJSONPath != "" {
		if err := bench.RunIncrementalToFile(stdout, *workers, *runs, *incrementalJSONPath); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *incrementalJSONPath)
	}
	if *qualityJSONPath != "" {
		if err := bench.RunQualityToFile(stdout, *runs, *qualityJSONPath); err != nil {
			fmt.Fprintln(stderr, "fdbench:", err)
			return exit(1)
		}
		fmt.Fprintf(stdout, "wrote %s\n", *qualityJSONPath)
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
		fn(stdout, runner)
		fmt.Fprintf(stdout, "[%s completed in %s]\n", id, time.Since(start).Round(time.Millisecond))
	}
	return exit(0)
}
