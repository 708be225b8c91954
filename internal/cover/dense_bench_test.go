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
	// agree holds every agree set the drains returned, in drain order.
	agree []fdset.AttrSet
	// admissions holds the ∅-seed batch, then one non-FD batch per
	// sampler drain (agree set X witnesses X ↛ a for every a ∉ X).
	admissions [][]fdset.FD
	// inversions holds, per admission batch, the admitted non-FDs not
	// superseded within it, in the sorted order the double cycle inverts
	// them.
	inversions [][]fdset.FD
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

// loadDenseStream replays an FD-dense relation: a letter-shaped 2000×17
// table (sixteen 16-valued image statistics and a 26-valued class, no
// planted FDs, tens of thousands of minimal FDs).
func loadDenseStream(b *testing.B) *coverStream {
	b.Helper()
	denseOnce.Do(func() {
		cols := make([]gen.ColSpec, 0, 17)
		for i := 0; i < 16; i++ {
			cols = append(cols, gen.ColSpec{Name: "stat" + string(rune('a'+i)), Kind: gen.NumericBucketed, Domain: 16})
		}
		cols = append(cols, gen.ColSpec{Name: "lettr", Kind: gen.Categorical, Domain: 26})
		dense = newCoverStream(gen.Generate(gen.Profile{Name: "letter", Rows: 2000, Cols: cols, Seed: 1}))
	})
	return dense
}

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

// newCoverStream encodes rel and replays its sampler's drains through a
// negative cover, recording each drain's admissions and pending
// inversions.
func newCoverStream(rel *dataset.Relation) *coverStream {
	enc := preprocess.Encode(rel)
	ncols := len(enc.Attrs)
	s := &coverStream{ncols: ncols}

	var seed []fdset.FD
	for a := 0; a < ncols; a++ {
		if enc.NumLabels[a] > 1 {
			seed = append(seed, fdset.FD{RHS: a})
		}
	}
	s.admissions = append(s.admissions, seed)
	opt := core.DefaultOptions()
	sampler := core.NewSampler(enc, opt.NumQueues, 3)
	for d := 0; d < streamDrains; d++ {
		var batch []fdset.FD
		for _, agree := range sampler.Batch(1 << 30) {
			s.agree = append(s.agree, agree)
			for a := 0; a < ncols; a++ {
				if !agree.Has(a) {
					batch = append(batch, fdset.FD{LHS: agree, RHS: a})
				}
			}
		}
		s.admissions = append(s.admissions, batch)
		if !sampler.Reseed() {
			break
		}
	}
	s.rank = cover.AttrFrequencyRank(ncols, s.admissions[1])

	nc := cover.NewNCover(ncols, s.rank)
	for _, batch := range s.admissions {
		pending := make(map[fdset.FD]bool)
		_, events := nc.AddTrackedBatch(batch, nil)
		for _, ev := range events {
			for _, lhs := range ev.Superseded {
				delete(pending, fdset.FD{LHS: lhs, RHS: ev.NonFD.RHS})
			}
			pending[ev.NonFD] = true
		}
		inv := make([]fdset.FD, 0, len(pending))
		for f := range pending {
			inv = append(inv, f)
		}
		fdset.SortFDs(inv)
		s.inversions = append(s.inversions, inv)
	}
	return s
}

// BenchmarkNCoverAdmitDense times Ncover admission (Algorithm 2) alone:
// the dense relation's admission batches into a fresh negative cover.
func BenchmarkNCoverAdmitDense(b *testing.B) {
	s := loadDenseStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc := cover.NewNCover(s.ncols, s.rank)
		for _, batch := range s.admissions {
			nc.AddTrackedBatch(batch, nil)
		}
	}
}

// BenchmarkInvertDense times Pcover inversion (Algorithm 3) alone: the
// dense relation's pending batches into a fresh positive cover.
func BenchmarkInvertDense(b *testing.B) {
	s := loadDenseStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := cover.NewPCover(s.ncols, s.rank)
		for _, batch := range s.inversions {
			pc.InvertAll(batch)
		}
	}
}

// BenchmarkNCoverAdmitWide is BenchmarkNCoverAdmitDense on the wide
// relation.
func BenchmarkNCoverAdmitWide(b *testing.B) {
	s := loadWideStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc := cover.NewNCover(s.ncols, s.rank)
		for _, batch := range s.admissions {
			nc.AddTrackedBatch(batch, nil)
		}
	}
}

// BenchmarkInvertWide is BenchmarkInvertDense on the wide relation.
func BenchmarkInvertWide(b *testing.B) {
	s := loadWideStream(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := cover.NewPCover(s.ncols, s.rank)
		for _, batch := range s.inversions {
			pc.InvertAll(batch)
		}
	}
}
