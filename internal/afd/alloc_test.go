package afd

import (
	"testing"

	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/testutil"
)

// TestScoreSteadyStateAllocFree gates the fused-measure claim end to
// end: once the partition cache holds the candidate's partition and the
// scratch pool is warm, Score allocates nothing per call.
func TestScoreSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	enc := preprocess.Encode(gen.UCITable("alloc", 1000, 8, false, 4, 23))
	s := NewScorer(enc, 0)
	lhs := fdset.NewAttrSet(0, 1)
	rhs := 2
	// Warm up: populate the cache and the scratch pool.
	s.Score(G3, lhs, rhs)
	for _, m := range Measures() {
		m := m
		if allocs := testing.AllocsPerRun(10, func() { s.Score(m, lhs, rhs) }); allocs != 0 {
			t.Errorf("Score(%s): %.1f allocs per run, want 0", m, allocs)
		}
	}
}
