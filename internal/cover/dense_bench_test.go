package cover_test

import (
	"sync"
	"testing"

	"eulerfd/internal/core"
	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
)

// denseStream is the evidence EulerFD feeds the cover layer on an
// FD-dense relation: a letter-shaped 2000×17 table (sixteen 16-valued
// image statistics and a 26-valued class, no planted FDs, tens of
// thousands of minimal FDs). It lives in an external test package
// because building it needs core's sampler, and core imports cover.
type denseStream struct {
	ncols int
	rank  []int
	// admissions holds the ∅-seed batch, then one non-FD batch per
	// sampler drain (agree set X witnesses X ↛ a for every a ∉ X).
	admissions [][]fdset.FD
	// inversions holds, per admission batch, the admitted non-FDs not
	// superseded within it, in the sorted order the double cycle inverts
	// them.
	inversions [][]fdset.FD
}

// denseDrains caps the replayed drains at what one discovery performs on
// this relation.
const denseDrains = 20

var (
	denseOnce sync.Once
	dense     *denseStream
)

func loadDenseStream(b *testing.B) *denseStream {
	b.Helper()
	denseOnce.Do(func() {
		cols := make([]gen.ColSpec, 0, 17)
		for i := 0; i < 16; i++ {
			cols = append(cols, gen.ColSpec{Name: "stat" + string(rune('a'+i)), Kind: gen.NumericBucketed, Domain: 16})
		}
		cols = append(cols, gen.ColSpec{Name: "lettr", Kind: gen.Categorical, Domain: 26})
		enc := preprocess.Encode(gen.Generate(gen.Profile{Name: "letter", Rows: 2000, Cols: cols, Seed: 1}))
		ncols := len(enc.Attrs)
		s := &denseStream{ncols: ncols}

		var seed []fdset.FD
		for a := 0; a < ncols; a++ {
			if enc.NumLabels[a] > 1 {
				seed = append(seed, fdset.FD{RHS: a})
			}
		}
		s.admissions = append(s.admissions, seed)
		opt := core.DefaultOptions()
		sampler := core.NewSampler(enc, opt.NumQueues, opt.RecentPasses)
		for d := 0; d < denseDrains; d++ {
			var batch []fdset.FD
			for _, agree := range sampler.Batch(1 << 30) {
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
		dense = s
	})
	return dense
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
