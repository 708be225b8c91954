package eulerfd

// Benchmarks regenerating (at reduced scale) every table and figure of the
// paper's evaluation, plus ablations of the design decisions called out in
// DESIGN.md. The full paper-style output comes from `go run ./cmd/fdbench
// -exp all`; these testing.B entry points exist so `go test -bench=.`
// exercises the same code paths with stable, comparable timings.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/cover"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
)

// encCache avoids re-encoding registry datasets across benchmarks.
var encCache = map[string]*preprocess.Encoded{}

func encoded(b *testing.B, name string) *preprocess.Encoded {
	b.Helper()
	if e, ok := encCache[name]; ok {
		return e
	}
	d, err := datasets.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	e := preprocess.Encode(d.Build())
	encCache[name] = e
	return e
}

// runAlgo dispatches one registered algorithm b.N times through the
// registry with its default tuning.
func runAlgo(b *testing.B, id algo.ID, enc *preprocess.Encoded) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, _, err := algo.RunEncoded(context.Background(), id, enc, algo.DefaultTuning()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3 covers Table III: each sub-benchmark is one
// (algorithm, dataset) cell on a representative spread of the registry —
// a small UCI table, a mid-size one, an FD-dense narrow table, and a tall
// one. Wide datasets are exercised by the figure benchmarks below.
func BenchmarkTable3(b *testing.B) {
	names := []string{"iris", "abalone", "hepatitis", "lineitem"}
	for _, name := range names {
		enc := encoded(b, name)
		if name == "lineitem" {
			// Bench the 5000-row head so the exact baselines keep each
			// iteration in seconds; the full height runs in fdbench.
			d, _ := datasets.ByName(name)
			h, _ := d.Build().Head(5000)
			enc = preprocess.Encode(h)
		}
		b.Run(name+"/Tane", func(b *testing.B) {
			runAlgo(b, algo.TANE, enc)
		})
		b.Run(name+"/Fdep", func(b *testing.B) {
			runAlgo(b, algo.Fdep, enc)
		})
		b.Run(name+"/HyFD", func(b *testing.B) {
			runAlgo(b, algo.HyFD, enc)
		})
		b.Run(name+"/AID-FD", func(b *testing.B) {
			runAlgo(b, algo.AIDFD, enc)
		})
		b.Run(name+"/EulerFD", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DiscoverEncoded(enc, core.DefaultOptions())
			}
		})
	}
}

// BenchmarkFig6RowScalabilityFDReduced sweeps relation height on the
// fd-reduced-30 stand-in (Figure 6) for EulerFD.
func BenchmarkFig6RowScalabilityFDReduced(b *testing.B) {
	d, _ := datasets.ByName("fd-reduced-30")
	base := d.Build()
	for i := 1; i <= 5; i++ {
		rows := base.NumRows() * i / 5
		h, _ := base.Head(rows)
		enc := preprocess.Encode(h)
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DiscoverEncoded(enc, core.DefaultOptions())
			}
		})
	}
}

// BenchmarkFig7RowScalabilityLineitem doubles relation height on the
// lineitem stand-in (Figure 7) for EulerFD vs AID-FD.
func BenchmarkFig7RowScalabilityLineitem(b *testing.B) {
	d, _ := datasets.ByName("lineitem")
	base := d.Build()
	for n := base.NumRows() / 8; n <= base.NumRows(); n *= 2 {
		h, _ := base.Head(n)
		enc := preprocess.Encode(h)
		b.Run(fmt.Sprintf("rows=%d/EulerFD", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DiscoverEncoded(enc, core.DefaultOptions())
			}
		})
		b.Run(fmt.Sprintf("rows=%d/AID-FD", n), func(b *testing.B) {
			runAlgo(b, algo.AIDFD, enc)
		})
	}
}

// BenchmarkFig8ColScalabilityPlista sweeps column prefixes of plista
// (Figure 8) for EulerFD.
func BenchmarkFig8ColScalabilityPlista(b *testing.B) {
	benchColScalability(b, "plista")
}

// BenchmarkFig9ColScalabilityUniprot sweeps column prefixes of uniprot
// (Figure 9) for EulerFD.
func BenchmarkFig9ColScalabilityUniprot(b *testing.B) {
	benchColScalability(b, "uniprot")
}

func benchColScalability(b *testing.B, name string) {
	d, _ := datasets.ByName(name)
	base := d.Build()
	for c := 10; c <= 60 && c <= base.NumCols(); c += 10 {
		p, _ := base.Prefix(c)
		enc := preprocess.Encode(p)
		b.Run(fmt.Sprintf("cols=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DiscoverEncoded(enc, core.DefaultOptions())
			}
		})
	}
}

// BenchmarkFig10MLFQ sweeps the MLFQ queue count (Figure 10, Table IV
// capa ranges) on the adult stand-in.
func BenchmarkFig10MLFQ(b *testing.B) {
	enc := encoded(b, "adult")
	for q := 1; q <= 7; q++ {
		opt := core.DefaultOptions()
		opt.NumQueues = q
		b.Run(fmt.Sprintf("queues=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DiscoverEncoded(enc, opt)
			}
		})
	}
}

// BenchmarkFig11Thresholds sweeps Th_Ncover = Th_Pcover (Figure 11) on
// the ncvoter stand-in.
func BenchmarkFig11Thresholds(b *testing.B) {
	enc := encoded(b, "ncvoter")
	for _, th := range []float64{0.1, 0.01, 0.001, 0} {
		opt := core.DefaultOptions()
		opt.ThNcover, opt.ThPcover = th, th
		b.Run(fmt.Sprintf("th=%v", th), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DiscoverEncoded(enc, opt)
			}
		})
	}
}

// BenchmarkTable5DMSFleet runs EulerFD vs AID-FD on representative DMS
// fleet shapes (Table V buckets).
func BenchmarkTable5DMSFleet(b *testing.B) {
	shapes := []struct{ rows, cols int }{
		{64, 8}, {512, 32}, {4096, 8}, {512, 72},
	}
	for _, s := range shapes {
		rel := gen.DMSShape(fmt.Sprintf("dms-%dx%d", s.rows, s.cols), s.rows, s.cols, int64(s.rows*31+s.cols))
		enc := preprocess.Encode(rel)
		b.Run(fmt.Sprintf("%dx%d/EulerFD", s.rows, s.cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DiscoverEncoded(enc, core.DefaultOptions())
			}
		})
		b.Run(fmt.Sprintf("%dx%d/AID-FD", s.rows, s.cols), func(b *testing.B) {
			runAlgo(b, algo.AIDFD, enc)
		})
	}
}

// --- Ablations (design decisions called out in DESIGN.md) ---

// ablationFamily builds a realistic dense LHS family from hepatitis
// non-FDs for the trie ablations.
func ablationFamily(b *testing.B) ([]fdset.AttrSet, int) {
	enc := encoded(b, "hepatitis")
	m := len(enc.Attrs)
	seen := map[fdset.AttrSet]struct{}{}
	var sets []fdset.AttrSet
	for i := 0; i < enc.NumRows; i++ {
		for j := i + 1; j < enc.NumRows; j++ {
			a := enc.AgreeSet(i, j)
			if _, dup := seen[a]; !dup {
				seen[a] = struct{}{}
				sets = append(sets, a)
			}
		}
	}
	return sets, m
}

// BenchmarkAblationTriePruning compares the inversion hot path — the
// candidate minimality query against a large positive-cover antichain —
// on the extended binary trie versus a linear scan of the same family.
// The family is a real Pcover tree of the plista stand-in (~10k minimal
// LHSs for one RHS): exactly the structure whose queries dominate
// FD-dense datasets. Small families favor the linear scan; this is the
// regime the trie exists for.
func BenchmarkAblationTriePruning(b *testing.B) {
	enc := encoded(b, "plista")
	m := len(enc.Attrs)
	fds, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
	// Collect the RHS-0 cover as the benchmark family.
	var sets []fdset.AttrSet
	fds.ForEach(func(f fdset.FD) {
		if f.RHS == 0 {
			sets = append(sets, f.LHS)
		}
	})
	tree := cover.NewTree(m, nil)
	for _, s := range sets {
		tree.Add(s)
	}
	b.Logf("family size: %d minimal LHSs", len(sets))
	// Probes are inversion candidates: a stored LHS extended by one
	// attribute — the exact shape ContainsSubsetWithAttr is asked about.
	r := rand.New(rand.NewSource(5))
	type probe struct {
		s    fdset.AttrSet
		attr int
	}
	probes := make([]probe, 1024)
	for i := range probes {
		base := sets[r.Intn(len(sets))]
		a := r.Intn(m)
		probes[i] = probe{s: base.With(a), attr: a}
	}
	b.Run("trie", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := probes[i%len(probes)]
			tree.ContainsSubsetWithAttr(p.s, p.attr)
		}
	})
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := probes[i%len(probes)]
			for _, s := range sets {
				if s.Has(p.attr) && s.IsSubsetOf(p.s) {
					break
				}
			}
		}
	})
}

// BenchmarkAblationAgreeSetDedup compares negative-cover admission of
// every pair's agree set (duplicates included) against admission of the
// deduplicated agree-set stream EulerFD's sampler emits.
func BenchmarkAblationAgreeSetDedup(b *testing.B) {
	enc := encoded(b, "hepatitis")
	m := len(enc.Attrs)
	var raw, deduped []fdset.AttrSet
	seen := map[fdset.AttrSet]struct{}{}
	for i := 0; i < enc.NumRows; i++ {
		for j := i + 1; j < enc.NumRows; j++ {
			agree := enc.AgreeSet(i, j)
			raw = append(raw, agree)
			if _, dup := seen[agree]; !dup {
				seen[agree] = struct{}{}
				deduped = append(deduped, agree)
			}
		}
	}
	b.Run("raw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cover.NewNCover(m, nil).Admit(raw, nil)
		}
	})
	b.Run("deduped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cover.NewNCover(m, nil).Admit(deduped, nil)
		}
	})
}

// BenchmarkAblationPaperInversion compares the refined inversion (spawn
// only attributes outside the non-FD's LHS) against the literal Algorithm
// 3 expansion, which re-finds and re-removes intermediate candidates.
func BenchmarkAblationPaperInversion(b *testing.B) {
	sets, m := ablationFamily(b)
	nc := cover.NewNCover(m, nil)
	for _, s := range sets {
		for a := 0; a < m; a++ {
			if !s.Has(a) {
				nc.Add(fdset.FD{LHS: s, RHS: a})
			}
		}
	}
	nonFDs := nc.FDs()
	b.Run("refined", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc := cover.NewPCover(m, nil)
			for _, f := range nonFDs {
				pc.Invert(f)
			}
		}
	})
	b.Run("literal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc := cover.NewPCover(m, nil)
			for _, f := range nonFDs {
				pc.InvertLiteral(f)
			}
		}
	})
}

// BenchmarkAblationIncrementalInversion compares EulerFD's incremental
// second cycle (invert only the non-FDs discovered since the previous
// inversion) against rebuilding the positive cover from scratch at every
// cycle, on a three-way split of the hepatitis negative cover.
func BenchmarkAblationIncrementalInversion(b *testing.B) {
	sets, m := ablationFamily(b)
	nc := cover.NewNCover(m, nil)
	for _, s := range sets {
		for a := 0; a < m; a++ {
			if !s.Has(a) {
				nc.Add(fdset.FD{LHS: s, RHS: a})
			}
		}
	}
	nonFDs := nc.FDs()
	third := len(nonFDs) / 3
	batches := [][]fdset.FD{nonFDs[:third], nonFDs[third : 2*third], nonFDs[2*third:]}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pc := cover.NewPCover(m, nil)
			for _, batch := range batches {
				pc.InvertAll(batch)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var last *cover.PCover
			for k := range batches {
				last = cover.NewPCover(m, nil)
				for _, batch := range batches[:k+1] {
					last.InvertAll(batch)
				}
			}
			_ = last
		}
	})
}

// BenchmarkAblationDynamicCapaRanges compares the static Table IV capa
// ladder against the runtime-retuned ladder (the paper's future-work
// extension, Options.DynamicCapaRanges) on the adult stand-in.
func BenchmarkAblationDynamicCapaRanges(b *testing.B) {
	enc := encoded(b, "adult")
	static := core.DefaultOptions()
	dynamic := core.DefaultOptions()
	dynamic.DynamicCapaRanges = true
	b.Run("static", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DiscoverEncoded(enc, static)
		}
	})
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.DiscoverEncoded(enc, dynamic)
		}
	})
}

// BenchmarkExactAlgorithms races every registered exact algorithm on
// the abalone stand-in — a wider view than Table III's five columns,
// covering all four families of Section II-A.
func BenchmarkExactAlgorithms(b *testing.B) {
	enc := encoded(b, "abalone")
	for _, info := range algo.List() {
		if info.Exact {
			b.Run(info.Name, func(b *testing.B) { runAlgo(b, info.ID, enc) })
		}
	}
}
