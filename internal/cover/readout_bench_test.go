package cover_test

import (
	"testing"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
)

// loadPCover returns a positive cover whose trees hold exactly the FDs
// of fds, never read out.
func loadPCover(fds *fdset.Set, ncols int) *cover.PCover {
	p := cover.NewPCover(ncols, nil)
	for rhs := 0; rhs < ncols; rhs++ {
		p.Tree(rhs).Remove(fdset.EmptySet())
	}
	fds.ForEach(func(f fdset.FD) { p.Tree(f.RHS).Add(f.LHS) })
	return p
}

// treeSets returns NewSet over every set the cover's trees hold: the
// read-out PCover.FDs must equal.
func treeSets(p *cover.PCover) *fdset.Set {
	var fds []fdset.FD
	for rhs := 0; rhs < p.NumCols(); rhs++ {
		for _, lhs := range p.Tree(rhs).Sets() {
			fds = append(fds, fdset.FD{LHS: lhs, RHS: rhs})
		}
	}
	return fdset.NewSet(fds...)
}

// BenchmarkPCoverFDs times the first read-out of the dense cover from a
// freshly loaded positive cover, the path of every one-shot discovery:
// each tree's sets collected, sorted by CompareMasks and copied into the
// set. The load runs with the timer stopped.
func BenchmarkPCoverFDs(b *testing.B) {
	want := denseCover()
	b.ReportAllocs()
	b.ResetTimer()
	var got *fdset.Set
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := loadPCover(want, 17)
		b.StartTimer()
		got = p.FDs()
	}
	if !got.Equal(want) {
		b.Fatal("PCover.FDs differs from the cover it was loaded with")
	}
}

// Commit-shaped churn: serve-mutate's median commit changes 16 of its 18
// trees, adding 86 sets and removing 82.
const (
	churnTrees   = 16
	churnRemoved = 5 // per tree
	churnAdded   = 6 // per tree, in all but the last churned tree
)

// BenchmarkPCoverFDsCommit times the read-out after one commit-shaped
// churn of the weather 8000×18 positive cover, serve-mutate's: 80 stored
// sets removed and 90 new ones added across 16 of its 18 trees. The
// iterations alternate between the churn and its undo, and the churn
// runs with the timer stopped.
func BenchmarkPCoverFDsCommit(b *testing.B) {
	_, pc := invertStream(loadWeatherStream(b))
	var out, in []fdset.FD
	for rhs := 0; rhs < churnTrees; rhs++ {
		t := pc.Tree(rhs)
		sets := t.Sets()
		for k := 0; k < churnRemoved && k < len(sets); k++ {
			out = append(out, fdset.FD{LHS: sets[k*len(sets)/churnRemoved], RHS: rhs})
		}
		added := 0
		for _, s := range sets {
			for a := 0; a < pc.NumCols() && added < churnAdded && rhs < churnTrees-1; a++ {
				if x := s.With(a); a != rhs && !t.Contains(x) && !containsFD(in, x, rhs) {
					in = append(in, fdset.FD{LHS: x, RHS: rhs})
					added++
				}
			}
		}
	}
	pc.FDs()
	b.ReportAllocs()
	b.ResetTimer()
	var got *fdset.Set
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		del, add := out, in
		if i%2 == 1 {
			del, add = in, out
		}
		for _, f := range del {
			pc.Tree(f.RHS).Remove(f.LHS)
		}
		for _, f := range add {
			pc.Tree(f.RHS).Add(f.LHS)
		}
		b.StartTimer()
		got = pc.FDs()
	}
	b.StopTimer()
	if !got.Equal(treeSets(pc)) {
		b.Fatal("PCover.FDs differs from NewSet over the trees' sets")
	}
}

// containsFD reports whether fds holds lhs → rhs.
func containsFD(fds []fdset.FD, lhs fdset.AttrSet, rhs int) bool {
	for _, f := range fds {
		if f.LHS == lhs && f.RHS == rhs {
			return true
		}
	}
	return false
}
