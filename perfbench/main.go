// Command perfbench is the repository benchmark. It runs one of four
// seeded workloads against the library's layers (dataset, preprocess,
// core, cover, fdset, afd, quality, serve) for a fixed time, checks every
// output for correctness, and prints its metrics. With --trace 0 it
// reports the end-to-end metrics; with --trace 1 it records spans around
// each call into a layer and reports the per-layer split instead. See
// README.md in this directory.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any output was incorrect or the run could not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// rows overrides the workload's row count (0 keeps the default);
	// the smoke test uses it to run every workload at a tiny size.
	rows int
	// spansPath is where a traced run writes its spans.
	spansPath string
	// corrupt, when set, alters the cover of the given operation after
	// the program returned it and before it is checked. Tests use it to
	// prove that a wrong cover is caught.
	corrupt func(op int, cover *fdset.Set)
}

// stamp identifies the conditions a result was measured under, so that
// results from different hosts compare like with like.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	GoVersion  string `json:"go_version"`
	Rows       int    `json:"rows"`
	Cols       int    `json:"cols"`
	CoverSize  int    `json:"cover_size"`
}

// result is what a workload measured. Latency slices hold one sample per
// operation; in a traced run, ops holds the untraced operations and
// tracedOps the traced ones, which alternate.
type result struct {
	stamp     stamp
	setup     []time.Duration
	ops       []time.Duration
	tracedOps []time.Duration
	reads     []time.Duration
	elapsed   time.Duration
	attempted int
	failed    int
	problems  []string
	f1        float64

	allocBytes uint64 // bytes the untraced ops allocated (serve-mutate: the whole loop, reads included)
	heapLive   uint64 // heap in use after a forced GC at the end
	numGC      uint32
	gcPause    time.Duration

	// layer holds per-operation samples of the per-layer metrics,
	// reported as medians; only traced operations add to it.
	layer map[string][]float64
	// moves re-attribute time between layers where the program's own
	// Stats split a span the benchmark cannot cut (see shares).
	moves map[string]time.Duration
	spans []span
}

func newResult(cfg config) *result {
	return &result{
		stamp: stamp{
			Workload:   cfg.workload,
			Seed:       cfg.seed,
			Trace:      cfg.trace,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workers:    core.DefaultOptions().Workers,
			GoVersion:  runtime.Version(),
		},
		layer: make(map[string][]float64),
		moves: make(map[string]time.Duration),
	}
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 8 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) sample(name string, v float64) { r.layer[name] = append(r.layer[name], v) }

// move shifts d of self time from one layer to another in the shares.
func (r *result) move(from, to string, d time.Duration) {
	r.moves[from] -= d
	r.moves[to] += d
}

// workload is one named benchmark workload.
type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

// workloads lists the workloads in BENCHMARK.json order; README.md says
// why each was chosen.
var workloads = []workload{
	{name: "cover-dense", run: runCoverDense},
	{name: "sample-tall", run: runSampleTall},
	{name: "serve-mutate", run: runServeMutate},
	{name: "quality-report", run: runQualityReport},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: cover-dense, sample-tall, serve-mutate or quality-report")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the measured loop runs")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// A traced run writes its spans next to the build outputs.
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = ".bench_build"
	}
	cfg := config{
		workload:  w.name,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		spansPath: filepath.Join(dir, "spans", fmt.Sprintf("%s-seed%d.json", w.name, *seed)),
	}
	res, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.trace {
		if err := writeSpans(cfg.spansPath, res.spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		if err := checkNesting(res.spans); err != nil {
			res.fail("trace: %v", err)
		}
	}
	metrics := endToEnd(res)
	if cfg.trace {
		metrics = perLayer(res)
	}
	report(stdout, res, metrics)
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: incorrect: %s\n", w.name, p)
	}
	if res.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// metric is one reported value. Samples is how many measurements the
// value summarizes; it is printed in the table, not in the JSON line.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

const mib = 1 << 20

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd assembles the metrics a user of the system sees. For the
// one-shot workloads an op is one CSV → result call; for serve-mutate it
// is one mutation batch, POST to done.
func endToEnd(r *result) []metric {
	ops := len(r.ops)
	perOp := func(v float64) float64 { return v / float64(max(ops, 1)) }
	return []metric{
		{"op_ms.p50", ms(percentile(r.ops, 50)), "ms", ops},
		{"ops_per_s", float64(ops) / r.elapsed.Seconds(), "1/s", ops},
		{"read_ms.p50", ms(percentile(r.reads, 50)), "ms", len(r.reads)},
		{"f1", r.f1, "ratio", 1},
		{"alloc_mb_per_op", perOp(float64(r.allocBytes) / mib), "MiB", ops},
		{"heap_live_mb", float64(r.heapLive) / mib, "MiB", 1},
		{"setup_s", percentile(r.setup, 50).Seconds(), "s", len(r.setup)},
	}
}

// perLayerNames lists every per-layer metric with its unit, in report
// order. Metrics a workload does not exercise are reported as 0.
var perLayerNames = []struct{ name, unit string }{
	{"dataset.read_csv_ms", "ms"},
	{"preprocess.encode_ms", "ms"},
	{"preprocess.alloc_mb", "MiB"},
	{"core.sampling_ms", "ms"},
	{"core.pairs_compared", "count"},
	{"core.ns_per_pair", "ns"},
	{"core.agree_yield", "ratio"},
	{"core.drains", "count"},
	{"core.inversions", "count"},
	{"cover.ncover_ms", "ms"},
	{"cover.ncover_size", "count"},
	{"cover.inversion_ms", "ms"},
	{"cover.pcover_size", "count"},
	{"core.span.sampled_ms", "ms"},
	{"cover.span.inverted_ms", "ms"},
	{"cover.inversion_alloc_mb", "MiB"},
	{"fdset.marshal_ms", "ms"},
	{"core.delta_scan_ms", "ms"},
	{"core.delta_pairs", "count"},
	{"core.patch_ms", "ms"},
	{"core.retired", "count"},
	{"core.patched_rhs", "count"},
	{"serve.ack_ms", "ms"},
	{"serve.job_ms", "ms"},
	{"serve.job_overhead_ms", "ms"},
	{"serve.read_412", "count"},
	{"serve.http_errors", "count"},
	{"afd.rank_ms", "ms"},
	{"afd.scored", "count"},
	{"afd.ns_per_score", "ns"},
	{"afd.cache_hit_ratio", "ratio"},
	{"quality.analyze_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.num_gc", "count"},
	{"tail.op_ms.p90", "ms"},
	{"tail.op_ms.p99", "ms"},
	{"tail.read_ms.p99", "ms"},
	{"share.dataset", "%"},
	{"share.preprocess", "%"},
	{"share.core", "%"},
	{"share.cover", "%"},
	{"share.fdset", "%"},
	{"share.afd", "%"},
	{"share.quality", "%"},
	{"share.serve", "%"},
	{"share.unattributed", "%"},
	{"trace.overhead_pct", "%"},
}

// shareLayers are the layers the traced run splits end-to-end time into.
var shareLayers = []string{"dataset", "preprocess", "core", "cover", "fdset", "afd", "quality", "serve", "unattributed"}

// perLayer assembles the traced run's metrics: medians of the per-op
// layer samples, tails of the untraced ops, each layer's share of the
// traced ops' end-to-end time, and the tracing overhead.
func perLayer(r *result) []metric {
	got := make(map[string]metric)
	for name, vs := range r.layer {
		got[name] = metric{Value: median(vs), Samples: len(vs)}
	}
	got["tail.op_ms.p90"] = metric{Value: ms(percentile(r.ops, 90)), Samples: len(r.ops)}
	got["tail.op_ms.p99"] = metric{Value: ms(percentile(r.ops, 99)), Samples: len(r.ops)}
	got["tail.read_ms.p99"] = metric{Value: ms(percentile(r.reads, 99)), Samples: len(r.reads)}
	if n := len(r.ops) + len(r.tracedOps); n > 0 {
		got["runtime.gc_pause_ms"] = metric{Value: ms(r.gcPause) / float64(n), Samples: n}
		got["runtime.num_gc"] = metric{Value: float64(r.numGC) / float64(n), Samples: n}
	}

	var total time.Duration
	opCount := 0
	for _, s := range r.spans {
		if s.Parent == 0 && s.Name == "op" {
			total += s.End - s.Start
			opCount++
		}
	}
	if total > 0 {
		self := make(map[string]time.Duration)
		for name, d := range selfTimes(r.spans) {
			self[layerOf(name)] += d
		}
		for layer, d := range r.moves {
			self[layer] += d
		}
		for _, l := range shareLayers {
			got["share."+l] = metric{Value: 100 * float64(self[l]) / float64(total), Samples: opCount}
		}
	}
	if u, t := percentile(r.ops, 50), percentile(r.tracedOps, 50); u > 0 && t > 0 {
		got["trace.overhead_pct"] = metric{Value: 100 * (float64(t) - float64(u)) / float64(u), Samples: len(r.ops) + len(r.tracedOps)}
	}

	out := make([]metric, 0, len(perLayerNames))
	for _, n := range perLayerNames {
		m := got[n.name]
		out = append(out, metric{Name: n.name, Value: m.Value, Unit: n.unit, Samples: m.Samples})
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the stamp, a readable table with sample counts, and the
// JSON result as the last line.
func report(w io.Writer, r *result, metrics []metric) {
	st, _ := json.Marshal(r.stamp)
	fmt.Fprintf(w, "# stamp %s\n", st)
	fmt.Fprintf(w, "# attempted=%d failed=%d failed_frac=%.4f\n", r.attempted, r.failed,
		float64(r.failed)/float64(max(r.attempted, 1)))
	line := resultLine{Correct: r.failed == 0, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, m := range metrics {
		fmt.Fprintf(w, "# %-26s %14.4f %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		line.Metrics[m.Name] = metricValue{Value: m.Value, Unit: m.Unit}
	}
	blob, _ := json.Marshal(line)
	fmt.Fprintf(w, "%s\n", blob)
}

// liveHeap returns the bytes in use after two forced collections; the
// second empties the sync.Pool victim caches the first one fills.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// percentile returns the p-th percentile of ds by linear interpolation
// between closest ranks; 0 for no samples.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
