// Command fdregress is the regression gate of the repo: it records
// accuracy + performance baselines for the canonical suite and checks a
// working tree against them.
//
// Usage:
//
//	fdregress record [-o BASELINE.json] [-runs 5] [-workers N]
//	fdregress check  [-baseline BASELINE.json] [-runs 3] [-perf-ratio 3.0]
//	                 [-perf-floor 25] [-perf-mode auto|gate|warn|off]
//	fdregress diff   [flags] OLD.json NEW.json
//
// record and check accept -cpuprofile FILE and -memprofile FILE to
// capture runtime/pprof profiles of the suite run for go tool pprof.
//
// Accuracy fields (precision/recall/F1 against the exact TANE ground
// truth, cover sizes, cycle counters) are exact-match gated: the
// determinism suite guarantees bit-identical FD sets, so any drift is a
// real behavior change. Wall times are threshold gated, and in the
// default auto mode only when the machine shape (NumCPU, GOMAXPROCS,
// Workers) matches the baseline's. check and diff exit 1 on regression,
// 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"eulerfd/internal/prof"
	"eulerfd/internal/regress"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: fdregress record|check|diff [flags]  (fdregress <verb> -h for flags)")
	return 2
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "record":
		return runRecord(rest, stdout, stderr)
	case "check":
		return runCheck(rest, stdout, stderr)
	case "diff":
		return runDiff(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		return usage(stderr)
	}
	fmt.Fprintf(stderr, "fdregress: unknown verb %q\n", verb)
	return usage(stderr)
}

// profFlags registers the runtime/pprof output flags shared by record
// and check, and returns a runner that wraps the verb's work with
// profile start/stop. The profile covers the whole verb, suite runs
// included, so a perf regression flagged by check can be diagnosed by
// re-running it with -cpuprofile.
func profFlags(fs *flag.FlagSet) func(stderr io.Writer, verb func() int) int {
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	return func(stderr io.Writer, verb func() int) int {
		stop, err := prof.StartCPU(*cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, "fdregress:", err)
			return 1
		}
		code := verb()
		if err := stop(); err != nil {
			fmt.Fprintln(stderr, "fdregress:", err)
			return 1
		}
		if err := prof.WriteHeap(*memProfile); err != nil {
			fmt.Fprintln(stderr, "fdregress:", err)
			return 1
		}
		return code
	}
}

func perfFlags(fs *flag.FlagSet) (*float64, *float64, *string) {
	ratio := fs.Float64("perf-ratio", 3.0, "fail a module time exceeding baseline*ratio")
	floor := fs.Float64("perf-floor", 25, "noise floor in ms: baselines below it are clamped up before the ratio test")
	mode := fs.String("perf-mode", "auto", "perf gating: auto (gate only when NumCPU, GOMAXPROCS and workers match the baseline), gate, warn, off")
	return ratio, floor, mode
}

func thresholds(ratio, floor *float64, mode *string, stderr io.Writer) (regress.Thresholds, bool) {
	m, err := regress.ParsePerfMode(*mode)
	if err != nil {
		fmt.Fprintln(stderr, "fdregress:", err)
		return regress.Thresholds{}, false
	}
	return regress.Thresholds{PerfRatio: *ratio, PerfFloorMS: *floor, Mode: m}, true
}

func runRecord(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdregress record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "BASELINE.json", "output path")
	runs := fs.Int("runs", 5, "timed runs per cell (median is recorded)")
	workers := fs.Int("workers", 0, "EulerFD worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	profiled := profFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	return profiled(stderr, func() int {
		b := regress.Run(regress.DefaultSuite(), regress.Config{Runs: *runs, Workers: *workers}, stdout)
		if err := regress.Save(*out, b); err != nil {
			fmt.Fprintln(stderr, "fdregress:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s (%d cells, %d runs each)\n", *out, len(b.Cells), *runs)
		return 0
	})
}

func runCheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdregress check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	basePath := fs.String("baseline", "BASELINE.json", "baseline to check against")
	runs := fs.Int("runs", 3, "timed runs per cell (median is compared)")
	workers := fs.Int("workers", 0, "EulerFD worker-pool size (0 = GOMAXPROCS, 1 = sequential)")
	ratio, floor, mode := perfFlags(fs)
	profiled := profFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	th, ok := thresholds(ratio, floor, mode, stderr)
	if !ok {
		return 2
	}
	base, err := regress.Load(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "fdregress:", err)
		return 1
	}
	return profiled(stderr, func() int {
		cur := regress.Run(regress.DefaultSuite(), regress.Config{Runs: *runs, Workers: *workers}, stdout)
		fmt.Fprintln(stdout)
		d := regress.Diff(base, cur, th)
		d.WriteTable(stdout)
		if !d.Clean() {
			return 1
		}
		return 0
	})
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdregress diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ratio, floor, mode := perfFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: fdregress diff [flags] OLD.json NEW.json")
		return 2
	}
	th, ok := thresholds(ratio, floor, mode, stderr)
	if !ok {
		return 2
	}
	base, err := regress.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "fdregress:", err)
		return 1
	}
	cur, err := regress.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "fdregress:", err)
		return 1
	}
	d := regress.Diff(base, cur, th)
	d.WriteTable(stdout)
	if !d.Clean() {
		return 1
	}
	return 0
}
