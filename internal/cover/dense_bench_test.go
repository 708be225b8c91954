package cover_test

import (
	"sync"
	"testing"

	"eulerfd/internal/core"
	"eulerfd/internal/cover"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
)

// coverStream is the evidence EulerFD feeds the cover layer on one
// relation, replayed from its sampler's drains. It lives in an external
// test package because building it needs core's sampler, and core
// imports cover.
type coverStream struct {
	ncols int
	rank  []int
	// seed lists the non-constant columns, whose ∅ non-FDs seed the
	// negative cover before the first drain.
	seed []int
	// drains holds each sampler drain's agree sets, in drain order.
	drains [][]fdset.AttrSet
}

// streamDrains caps the replayed drains at what one discovery performs
// on the dense relation.
const streamDrains = 20

var (
	denseOnce sync.Once
	dense     *coverStream
	wideOnce  sync.Once
	wide      *coverStream
)

// letterRelation is an FD-dense relation: a letter-shaped 2000×17 table
// (sixteen 16-valued image statistics and a 26-valued class, no planted
// FDs, tens of thousands of minimal FDs).
func letterRelation() *dataset.Relation {
	cols := make([]gen.ColSpec, 0, 17)
	for i := 0; i < 16; i++ {
		cols = append(cols, gen.ColSpec{Name: "stat" + string(rune('a'+i)), Kind: gen.NumericBucketed, Domain: 16})
	}
	cols = append(cols, gen.ColSpec{Name: "lettr", Kind: gen.Categorical, Domain: 26})
	return gen.Generate(gen.Profile{Name: "letter", Rows: 2000, Cols: cols, Seed: 1})
}

// loadDenseStream replays letterRelation.
func loadDenseStream(b *testing.B) *coverStream {
	b.Helper()
	denseOnce.Do(func() { dense = newCoverStream(letterRelation()) })
	return dense
}

// denseCover is EulerFD's cover of letterRelation: 40,582 minimal FDs,
// the result a reader of an FD-dense relation gets.
var denseCover = sync.OnceValue(func() *fdset.Set {
	fds, _ := core.DiscoverEncoded(preprocess.Encode(letterRelation()), core.DefaultOptions())
	return fds
})

// loadWideStream replays a relation wider than one mask word, so the
// multi-word tree path has benchmarks of its own: DMS-shaped 400×72, two
// words with eight attributes in the second. The sampler's first pass
// sets the replay's cost and shrinking the rows does not shrink it; 72
// columns keep one inversion iteration under a second where 100 take
// about four.
func loadWideStream(b *testing.B) *coverStream {
	b.Helper()
	wideOnce.Do(func() {
		wide = newCoverStream(gen.DMSShape("dms", 400, 72, 1))
	})
	return wide
}

// newCoverStream encodes rel and records its sampler's drains.
func newCoverStream(rel *dataset.Relation) *coverStream {
	enc := preprocess.Encode(rel)
	ncols := len(enc.Attrs)
	s := &coverStream{ncols: ncols}
	for a := 0; a < ncols; a++ {
		if enc.NumLabels[a] > 1 {
			s.seed = append(s.seed, a)
		}
	}
	sampler := core.NewSampler(enc, core.DefaultOptions())
	for d := 0; d < streamDrains; d++ {
		s.drains = append(s.drains, sampler.Drain())
		if !sampler.Reseed() {
			break
		}
	}
	s.rank = cover.AgreeSetRank(ncols, s.drains[0])
	return s
}

// admit feeds nc the stream's batch k: the ∅ seeds for k = 0, else
// drain k − 1, each marked pending as the double cycle admits them.
func (s *coverStream) admit(nc *cover.NCover, k int) {
	if k == 0 {
		for _, a := range s.seed {
			nc.Seed(a)
		}
		return
	}
	nc.Admit(s.drains[k-1], nil)
}

// batches returns the number of admission batches: the seeds, then one
// per drain.
func (s *coverStream) batches() int { return 1 + len(s.drains) }

// benchAdmit times Ncover admission (Algorithm 2) alone: the stream's
// batches into a fresh negative cover.
func benchAdmit(b *testing.B, s *coverStream) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc := cover.NewNCover(s.ncols, s.rank)
		for k := 0; k < s.batches(); k++ {
			s.admit(nc, k)
		}
	}
}

// benchInvert times Pcover inversion (Algorithm 3) alone: after each
// batch, which is admitted with the timer stopped, the sets it left
// pending invert into a fresh positive cover.
func benchInvert(b *testing.B, s *coverStream) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		nc := cover.NewNCover(s.ncols, s.rank)
		pc := cover.NewPCover(s.ncols, s.rank)
		for k := 0; k < s.batches(); k++ {
			b.StopTimer()
			s.admit(nc, k)
			b.StartTimer()
			pc.InvertPending(nc, nil)
		}
	}
}

// BenchmarkNCoverAdmitDense times admission on the dense relation.
func BenchmarkNCoverAdmitDense(b *testing.B) { benchAdmit(b, loadDenseStream(b)) }

// BenchmarkInvertDense times pending inversion on the dense relation.
func BenchmarkInvertDense(b *testing.B) { benchInvert(b, loadDenseStream(b)) }

// BenchmarkNCoverAdmitWide times admission on the wide relation.
func BenchmarkNCoverAdmitWide(b *testing.B) { benchAdmit(b, loadWideStream(b)) }

// BenchmarkInvertWide times pending inversion on the wide relation.
func BenchmarkInvertWide(b *testing.B) { benchInvert(b, loadWideStream(b)) }
