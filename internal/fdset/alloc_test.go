package fdset

import (
	"math/rand"
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
// a constant, whatever the set's size: one slice for the canonical sort
// and one output buffer sized up front. A writer that grew its buffer by
// appending, or reflected per FD, would allocate more for larger sets.
func TestSetMarshalJSONAllocsConstant(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 100, 10000} {
		s := NewSet(randFDs(r, n)...)
		if allocs := testing.AllocsPerRun(5, func() { _, _ = s.MarshalJSON() }); allocs != 2 {
			t.Errorf("%d FDs: %.1f allocs per MarshalJSON, want 2", n, allocs)
		}
	}
}
