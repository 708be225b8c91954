package fdset

import (
	"math/rand"
	"runtime"
	"testing"

	"eulerfd/internal/testutil"
)

// TestSingleWordOpsAllocFree pins the value-type contract of AttrSet:
// the single-word constructors and the set algebra the sampling and
// scoring hot paths lean on must never touch the heap. A regression here
// (e.g. an op returning a pointer or boxing into an interface) would
// silently put an allocation on every sampled pair.
func TestSingleWordOpsAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	var sink AttrSet
	var sinkInt int
	var sinkBool bool
	ops := map[string]func(){
		"FromWord":   func() { sink = FromWord(0xdeadbeef) },
		"Word0":      func() { sinkInt = int(sink.Word0()) },
		"With":       func() { sink = sink.With(7) },
		"Has":        func() { sinkBool = sink.Has(7) },
		"Count":      func() { sinkInt = sink.Count() },
		"Intersect":  func() { sink = sink.Intersect(FromWord(0xff)) },
		"IsSubsetOf": func() { sinkBool = FromWord(1).IsSubsetOf(sink) },
	}
	for name, fn := range ops {
		if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
			t.Errorf("%s: %.1f allocs per run, want 0", name, allocs)
		}
	}
	_, _, _ = sink, sinkInt, sinkBool
}

// TestSetMarshalJSONAllocsConstant pins the render path's allocations to
// one, whatever the set's size: the output buffer, sized up front. The
// set is already in canonical order, so there is no sorted copy. A
// writer that grew its buffer by appending, or reflected per FD, would
// allocate more for larger sets.
func TestSetMarshalJSONAllocsConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	// A process's first collection starts the runtime's mark workers,
	// which allocate; let it happen before counting.
	runtime.GC()
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 100, 10000} {
		s := NewSet(randFDs(r, n)...)
		if allocs := testing.AllocsPerRun(5, func() { _, _ = s.MarshalJSON() }); allocs != 1 {
			t.Errorf("%d FDs: %.1f allocs per MarshalJSON, want 1", n, allocs)
		}
	}
}

// TestSetReadsAllocFree pins the set's reads to zero allocations: they
// walk the runs in place, with no sorted copy, no map and no boxed FD.
// The sets span one-word masks, six-word masks, and two equal sets at
// different widths, which Equal compares mask by mask.
func TestSetReadsAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	runtime.GC()
	narrow := make([]FD, 0, 2000)
	for i := 0; i < 2000; i++ {
		narrow = append(narrow, FD{LHS: FromWord(uint64(i) * 0x9e3779b97f4a7c15 >> 40), RHS: i % 17})
	}
	wideFDs := randFDs(rand.New(rand.NewSource(2)), 2000)
	widened := NewSet(narrow...)
	widened.Add(FD{LHS: NewAttrSet(MaxAttrs - 1), RHS: 0})
	widened.Remove(FD{LHS: NewAttrSet(MaxAttrs - 1), RHS: 0})
	// Each set is read against an equal one, so Equal compares every mask.
	pairs := map[string][2]*Set{
		"narrow":  {NewSet(narrow...), NewSet(narrow...)},
		"wide":    {NewSet(wideFDs...), NewSet(wideFDs...).Clone()},
		"widened": {widened, NewSet(narrow...)},
	}
	var sinkInt int
	var sinkBool bool
	for name, p := range pairs {
		s, other := p[0], p[1]
		probe := s.Slice()[s.Len()/2]
		ops := map[string]func(){
			"ForEach":  func() { s.ForEach(func(f FD) { sinkInt += f.RHS }) },
			"Contains": func() { sinkBool = s.Contains(probe) },
			"Len":      func() { sinkInt = s.Len() },
			"Equal":    func() { sinkBool = s.Equal(other) },
		}
		for op, fn := range ops {
			if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
				t.Errorf("%s set: %s: %.1f allocs per run, want 0", name, op, allocs)
			}
		}
		if !s.Equal(other) || !s.Contains(probe) {
			t.Errorf("%s set: not equal to its copy, or lacks its own FD", name)
		}
	}
	_, _ = sinkInt, sinkBool
}
