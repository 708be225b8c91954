package cover_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
)

// retireCase is one mutation batch's retirements on the weather 8000×18
// covers: the RHSs that lost non-FDs, what each lost, and each one's
// negative cover after the alive subsets of the lost sets were
// re-admitted.
type retireCase struct {
	ncols    int
	affected []int
	retired  [][]fdset.AttrSet // by RHS
	after    [][]fdset.AttrSet // by RHS
	// pc holds the positive cover of the negative cover before the
	// retirements.
	pc *cover.PCover
}

// Serve-mutate sized: its batches retire about 19 maximal non-FDs over
// 13 RHSs.
const (
	retireRHSs = 13
	retireSets = 19
)

var (
	retireOnce  sync.Once
	retireData  *retireCase
	weatherOnce sync.Once
	weather     *coverStream
)

// loadWeatherStream replays serve-mutate's relation, weather 8000×18.
func loadWeatherStream(b *testing.B) *coverStream {
	b.Helper()
	weatherOnce.Do(func() { weather = newCoverStream(gen.Weather("weather", 8000, 1)) })
	return weather
}

// invertStream builds the stream's covers in natural split order, as
// core.Incremental does: each batch admitted, then inverted.
func invertStream(s *coverStream) (*cover.NCover, *cover.PCover) {
	nc, pc := cover.NewNCover(s.ncols, nil), cover.NewPCover(s.ncols, nil)
	for k := 0; k < s.batches(); k++ {
		s.admit(nc, k)
		pc.InvertPending(nc, nil)
	}
	return nc, pc
}

// loadRetireCase builds the covers in natural split order, as
// core.Incremental does, and retires one stored non-FD of each of the
// first retireRHSs RHSs that store any, and a second one of the first
// retireSets − retireRHSs of them. Re-admission follows core's
// patchCovers: every sampled agree set below a retired set, largest
// first.
func loadRetireCase(b *testing.B) *retireCase {
	b.Helper()
	s := loadWeatherStream(b)
	retireOnce.Do(func() {
		nc, pc := invertStream(s)
		c := &retireCase{
			ncols:   s.ncols,
			retired: make([][]fdset.AttrSet, s.ncols),
			after:   make([][]fdset.AttrSet, s.ncols),
			pc:      pc,
		}
		alive := slices.Concat(s.drains...)
		fdset.SortSetsDesc(alive)
		for rhs := 0; rhs < s.ncols && len(c.affected) < retireRHSs; rhs++ {
			sets := nc.Tree(rhs).Sets()
			if len(sets) == 0 || sets[0].IsEmpty() {
				continue
			}
			picks := []fdset.AttrSet{sets[len(sets)/3]}
			if len(c.affected) < retireSets-retireRHSs && len(sets) > 1 {
				picks = append(picks, sets[2*len(sets)/3])
			}
			for _, m := range picks {
				nc.RemoveLHS(rhs, m)
			}
			for _, x := range alive {
				if !x.Has(rhs) && slices.ContainsFunc(picks, x.IsSubsetOf) {
					nc.Readmit(rhs, x)
				}
			}
			c.affected = append(c.affected, rhs)
			c.retired[rhs] = picks
			c.after[rhs] = nc.Tree(rhs).Sets()
		}
		retireData = c
	})
	return retireData
}

// BenchmarkPCoverRetire times PCover.Retire over one batch's affected
// RHSs. Between iterations, with the timer stopped, inverting the
// retired sets forward restores the covers of before the retirements.
func BenchmarkPCoverRetire(b *testing.B) {
	c := loadRetireCase(b)
	ref := cover.NewPCover(c.ncols, nil)
	for _, rhs := range c.affected {
		c.pc.Retire(rhs, c.retired[rhs], c.after[rhs])
		ref.Rebuild(rhs, c.after[rhs])
		got, want := c.pc.Tree(rhs).Sets(), ref.Tree(rhs).Sets()
		fdset.SortSetsDesc(got)
		fdset.SortSetsDesc(want)
		if !reflect.DeepEqual(got, want) {
			b.Fatalf("rhs %d: Retire left %d candidates, Rebuild derives %d", rhs, len(got), len(want))
		}
	}
	restore := func() {
		for _, rhs := range c.affected {
			for _, lhs := range c.retired[rhs] {
				c.pc.Invert(fdset.FD{LHS: lhs, RHS: rhs})
			}
		}
	}
	restore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rhs := range c.affected {
			c.pc.Retire(rhs, c.retired[rhs], c.after[rhs])
		}
		b.StopTimer()
		restore()
		b.StartTimer()
	}
}

// BenchmarkPCoverRebuild times what Retire replaces: re-inverting every
// affected RHS's whole negative cover from ∅.
func BenchmarkPCoverRebuild(b *testing.B) {
	c := loadRetireCase(b)
	pc := cover.NewPCover(c.ncols, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rhs := range c.affected {
			pc.Rebuild(rhs, c.after[rhs])
		}
	}
}
