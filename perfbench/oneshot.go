package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"eulerfd/internal/afd"
	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/metrics"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/quality"
)

// oneShotSetups is how many times a one-shot workload generates and
// serializes its input; setup_s is the median.
const oneShotSetups = 9

// Reads of the cover are timed after each untraced op, outside it, on a
// heap just collected, so that the collector's phase does not decide the
// sample: a cover that marshals in well under readBudget is read several
// times.
const (
	readBudget  = 5 * time.Millisecond
	maxReadReps = 16
)

// oneShot is a workload whose operation is one call from CSV bytes to a
// result: read, encode, discover, then either marshal the cover or build
// and marshal a quality report. One client runs it in a closed loop.
type oneShot struct {
	name    string
	rows    int
	build   func(rows int, seed int64) *dataset.Relation
	exact   algo.ID // registry algorithm computing the exact reference cover
	quality bool
}

func runCoverDense(cfg config) (*result, error) {
	return oneShot{name: "letter", rows: 2000, build: letterShaped, exact: algo.Fdep}.run(cfg)
}

func runSampleTall(cfg config) (*result, error) {
	lineitem := func(rows int, seed int64) *dataset.Relation { return gen.Lineitem("lineitem", rows, seed) }
	return oneShot{name: "lineitem", rows: 40000, build: lineitem, exact: algo.HyFD}.run(cfg)
}

func runQualityReport(cfg config) (*result, error) {
	weather := func(rows int, seed int64) *dataset.Relation { return gen.Weather("weather", rows, seed) }
	return oneShot{name: "weather", rows: 1000, build: weather, exact: algo.Fdep, quality: true}.run(cfg)
}

func col(name string, kind gen.ColKind, domain int) gen.ColSpec {
	return gen.ColSpec{Name: name, Kind: kind, Domain: domain}
}

// letterShaped copies the column structure of UCI letter: sixteen
// 16-valued image statistics and a 26-valued class. No column determines
// another, so the cover is dense (tens of thousands of minimal FDs).
func letterShaped(rows int, seed int64) *dataset.Relation {
	specs := make([]gen.ColSpec, 0, 17)
	for _, n := range []string{"xbox", "ybox", "width", "high", "onpix", "xbar", "ybar", "x2bar",
		"y2bar", "xybar", "x2ybr", "xy2br", "xege", "xegvy", "yege", "yegvx"} {
		specs = append(specs, col(n, gen.NumericBucketed, 16))
	}
	specs = append(specs, col("lettr", gen.Categorical, 26))
	return gen.Generate(gen.Profile{Name: "letter", Rows: rows, Cols: specs, Seed: seed})
}

// opOut is what one operation produced.
type opOut struct {
	cover     *fdset.Set
	coverJSON []byte // the cover as a reader gets it (nil for quality ops)
	report    []byte // the quality report (quality ops only)
	enc       *preprocess.Encoded
	analyze   time.Duration
}

func (w oneShot) run(cfg config) (*result, error) {
	rows := w.rows
	if cfg.rows > 0 {
		rows = cfg.rows
	}
	res := newResult(cfg)
	var csv []byte
	for i := 0; i < oneShotSetups; i++ {
		runtime.GC()
		t0 := time.Now()
		rel := w.build(rows, cfg.seed)
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, rel); err != nil {
			return nil, fmt.Errorf("serialize input: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0))
		csv = buf.Bytes()
		res.stamp.Rows, res.stamp.Cols = rel.NumRows(), rel.NumCols()
	}

	// References, computed outside the timed region: the exact cover for
	// f1 and, for quality reports, the report of a sequential run. They
	// also warm the code paths the loop measures.
	ctx := context.Background()
	rel, err := dataset.ReadCSV(w.name, bytes.NewReader(csv), dataset.DefaultCSVOptions())
	if err != nil {
		return nil, fmt.Errorf("read input: %w", err)
	}
	exact, _, err := algo.RunEncoded(ctx, w.exact, preprocess.Encode(rel), algo.DefaultTuning())
	if err != nil {
		return nil, fmt.Errorf("exact reference %s: %w", w.exact, err)
	}
	opt := core.DefaultOptions()
	var refReport []byte
	if w.quality {
		seq := opt
		seq.Workers = 1
		ref, err := w.op(ctx, csv, seq, nil, 0, res)
		if err != nil {
			return nil, fmt.Errorf("sequential reference: %w", err)
		}
		refReport = ref.report
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var first *fdset.Set
	var firstHash [32]byte
	var last opOut
	var before, after, opStart, opEnd runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var busy time.Duration
	for i := 0; i == 0 || time.Since(start) < cfg.seconds || (cfg.trace && i < 2); i++ {
		// A traced run alternates untraced and traced operations, so the
		// gap between their medians is the tracing overhead.
		var t *tracer
		if cfg.trace && i%2 == 1 {
			t = tr
		}
		res.attempted++
		runtime.ReadMemStats(&opStart)
		t0 := time.Now()
		o, err := w.op(ctx, csv, opt, t, i, res)
		d := time.Since(t0)
		runtime.ReadMemStats(&opEnd)
		busy += d
		if err != nil {
			res.fail("op %d: %v", i, err)
			continue
		}
		if t != nil {
			res.tracedOps = append(res.tracedOps, d)
			if w.quality {
				rank := rankProbe(ctx, o.enc, o.cover, res)
				// Analyze runs the same ranking on its own fresh scorer; the
				// probe times it after the operation, so its time moves from
				// the quality layer's self time to afd.
				res.move("quality", "afd", min(rank, o.analyze))
			}
		} else {
			res.ops = append(res.ops, d)
			res.allocBytes += opEnd.TotalAlloc - opStart.TotalAlloc
			res.reads = append(res.reads, reads(o)...)
		}
		last = o
		if cfg.corrupt != nil {
			cfg.corrupt(i, o.cover)
			o.coverJSON = nil
		}
		if o.coverJSON == nil {
			if o.coverJSON, err = o.cover.MarshalJSON(); err != nil {
				res.fail("op %d: marshal cover: %v", i, err)
				continue
			}
		}
		h := sha256.Sum256(o.coverJSON)
		if first == nil {
			first, firstHash = o.cover, h
		} else if h != firstHash {
			res.fail("op %d: cover differs from op 0 (%d vs %d FDs)", i, o.cover.Len(), first.Len())
		}
		if w.quality && !bytes.Equal(o.report, refReport) {
			res.fail("op %d: quality report differs from the Workers=1 reference", i)
		}
	}
	res.elapsed = busy
	runtime.ReadMemStats(&after)
	res.numGC = after.NumGC - before.NumGC
	res.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	res.heapLive = liveHeap()
	// The live heap holds what a caller keeps: the input, the last op's
	// encoded relation and result, and the exact reference.
	runtime.KeepAlive(csv)
	runtime.KeepAlive(exact)
	runtime.KeepAlive(last)

	if first != nil {
		res.f1 = metrics.Evaluate(first, exact).F1
		res.stamp.CoverSize = first.Len()
		if res.f1 < minF1 {
			res.fail("f1 %.4f against the exact %s cover is below %.2f", res.f1, w.exact, minF1)
		}
	}
	res.spans = tr.snapshot()
	return res, nil
}

// minF1 is the accuracy floor below which a cover counts as wrong rather
// than approximate: EulerFD scores above 0.9 on every workload here.
const minF1 = 0.8

// op runs one operation. With a tracer it records a span around each
// call into a layer and adds that operation's per-layer samples to res.
func (w oneShot) op(ctx context.Context, csv []byte, opt core.Options, tr *tracer, op int, res *result) (opOut, error) {
	var o opOut
	root := tr.begin("op", op, 0)
	defer tr.end(root)
	traced := tr != nil
	var mem runtime.MemStats

	sp := tr.begin("dataset.read_csv", op, root)
	t := time.Now()
	rel, err := dataset.ReadCSV(w.name, bytes.NewReader(csv), dataset.DefaultCSVOptions())
	readCSV := time.Since(t)
	tr.end(sp)
	if err != nil {
		return o, fmt.Errorf("read csv: %w", err)
	}

	var allocBefore uint64
	if traced {
		runtime.ReadMemStats(&mem)
		allocBefore = mem.TotalAlloc
	}
	sp = tr.begin("preprocess.encode", op, root)
	t = time.Now()
	enc := preprocess.Encode(rel)
	encode := time.Since(t)
	tr.end(sp)
	if traced {
		runtime.ReadMemStats(&mem)
		res.sample("preprocess.alloc_mb", float64(mem.TotalAlloc-allocBefore)/mib)
	}

	// The observer cuts the discovery span at every double-cycle stage
	// boundary: a segment ending at "sampled" is a sampling drain plus its
	// Ncover admission, one ending at "inverted" an inversion.
	disc := tr.begin("core.discover", op, root)
	var obs core.Observer
	var drains int
	var sampled, inverted time.Duration
	var invAlloc, allocAtSampled uint64
	if traced {
		seg := time.Now()
		obs = func(p core.Progress) {
			now := time.Now()
			runtime.ReadMemStats(&mem)
			switch p.Phase {
			case "sampled":
				tr.record("core.sampled", op, disc, seg, now)
				sampled += now.Sub(seg)
				drains++
				allocAtSampled = mem.TotalAlloc
			case "inverted":
				tr.record("cover.inverted", op, disc, seg, now)
				inverted += now.Sub(seg)
				invAlloc += mem.TotalAlloc - allocAtSampled
			}
			seg = time.Now()
		}
	}
	cover, st, err := core.DiscoverEncodedContext(ctx, enc, opt, obs)
	tr.end(disc)
	if err != nil {
		return o, fmt.Errorf("discover: %w", err)
	}
	o.cover, o.enc = cover, enc
	if traced {
		res.sample("dataset.read_csv_ms", ms(readCSV))
		res.sample("preprocess.encode_ms", ms(encode))
		res.sample("core.sampling_ms", ms(st.Sampling))
		res.sample("core.pairs_compared", float64(st.PairsCompared))
		if st.PairsCompared > 0 {
			res.sample("core.ns_per_pair", float64(st.Sampling)/float64(st.PairsCompared))
			res.sample("core.agree_yield", float64(st.AgreeSets)/float64(st.PairsCompared))
		}
		res.sample("core.drains", float64(drains))
		res.sample("core.inversions", float64(st.Inversions))
		res.sample("cover.ncover_ms", ms(st.NcoverBuild))
		res.sample("cover.ncover_size", float64(st.NcoverSize))
		res.sample("cover.inversion_ms", ms(st.Inversion))
		res.sample("cover.pcover_size", float64(st.PcoverSize))
		res.sample("core.span.sampled_ms", ms(sampled))
		res.sample("cover.span.inverted_ms", ms(inverted))
		res.sample("cover.inversion_alloc_mb", float64(invAlloc)/mib)
		// The sampled segments include Ncover admission, which belongs to
		// the cover layer; core.Stats times it inside the segment.
		res.move("core", "cover", st.NcoverBuild)
	}

	if !w.quality {
		sp = tr.begin("fdset.marshal", op, root)
		t = time.Now()
		o.coverJSON, err = cover.MarshalJSON()
		marshal := time.Since(t)
		tr.end(sp)
		if err != nil {
			return o, fmt.Errorf("marshal cover: %w", err)
		}
		if traced {
			res.sample("fdset.marshal_ms", ms(marshal))
		}
		return o, nil
	}

	sp = tr.begin("quality.analyze", op, root)
	t = time.Now()
	rep, err := quality.Analyze(ctx, enc, cover, nil, quality.DefaultOptions())
	o.analyze = time.Since(t)
	tr.end(sp)
	if err != nil {
		return o, fmt.Errorf("analyze: %w", err)
	}
	sp = tr.begin("quality.marshal", op, root)
	o.report, err = json.Marshal(rep)
	tr.end(sp)
	if err != nil {
		return o, fmt.Errorf("marshal report: %w", err)
	}
	if traced {
		res.sample("quality.analyze_ms", ms(o.analyze))
	}
	return o, nil
}

// reads times marshals of an op's cover after a forced collection, at
// least once and then until readBudget is spent. For quality ops this is
// the cover the report was computed from, so read_ms means the same on
// every one-shot workload.
func reads(o opOut) []time.Duration {
	runtime.GC()
	var out []time.Duration
	var spent time.Duration
	for len(out) == 0 || (len(out) < maxReadReps && spent < readBudget) {
		t := time.Now()
		_, err := o.cover.MarshalJSON()
		d := time.Since(t)
		if err != nil {
			break
		}
		out = append(out, d)
		spent += d
	}
	return out
}

// rankProbe times the redundancy ranking quality.Analyze starts with —
// Scorer.Rank over the cover on a fresh scorer — and records the afd
// layer's counters. It runs after a traced operation, outside its spans.
func rankProbe(ctx context.Context, enc *preprocess.Encoded, cover *fdset.Set, res *result) time.Duration {
	qopt := quality.DefaultOptions()
	sc := afd.NewScorer(enc, qopt.CacheSize)
	t := time.Now()
	_, err := sc.Rank(ctx, afd.Redundancy, cover.Slice(), qopt.TopK)
	d := time.Since(t)
	if err != nil {
		res.fail("rank probe: %v", err)
		return 0
	}
	res.sample("afd.rank_ms", ms(d))
	res.sample("afd.scored", float64(sc.Scored()))
	if n := sc.Scored(); n > 0 {
		res.sample("afd.ns_per_score", float64(d)/float64(n))
	}
	hits, misses, derived := sc.CacheStats()
	if total := hits + misses + derived; total > 0 {
		res.sample("afd.cache_hit_ratio", float64(hits)/float64(total))
	}
	return d
}
