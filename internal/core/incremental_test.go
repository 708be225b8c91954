package core

import (
	"math/rand"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/naive"
	"eulerfd/internal/preprocess"
)

func TestEncoderMatchesBatchEncode(t *testing.T) {
	rel := patientRelation()
	e := preprocess.NewEncoder(rel.Attrs)
	if err := e.Append(rel.Rows[:4]); err != nil {
		t.Fatal(err)
	}
	if err := e.Append(rel.Rows[4:]); err != nil {
		t.Fatal(err)
	}
	inc := e.Snapshot("patient")
	batch := preprocess.Encode(rel)
	if inc.NumRows != batch.NumRows {
		t.Fatalf("rows %d vs %d", inc.NumRows, batch.NumRows)
	}
	// Label-identity may differ only by first-occurrence order, which is
	// identical here (same row order), so labels must match exactly.
	for c := range batch.Attrs {
		for i := int32(0); i < int32(batch.NumRows); i++ {
			if inc.Lane(c).At(i) != batch.Lane(c).At(i) {
				t.Fatalf("label mismatch at (%d,%d)", i, c)
			}
		}
	}
	for c := range batch.NumLabels {
		if inc.NumLabels[c] != batch.NumLabels[c] {
			t.Fatalf("NumLabels[%d] = %d vs %d", c, inc.NumLabels[c], batch.NumLabels[c])
		}
	}
}

func TestEncoderRejectsRaggedRows(t *testing.T) {
	e := preprocess.NewEncoder([]string{"A", "B"})
	if err := e.Append([][]string{{"1"}}); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestIncrementalExhaustiveMatchesFresh(t *testing.T) {
	// With exhaustive windows, incremental discovery over any batch split
	// must equal fresh exhaustive discovery of the full relation — which
	// equals the brute-force oracle.
	r := rand.New(rand.NewSource(173))
	for iter := 0; iter < 25; iter++ {
		rel := randomRelation(r, 6+r.Intn(30), 2+r.Intn(5), 1+r.Intn(4))
		opt := exhaustiveOptions()
		inc, err := NewIncremental("t", rel.Attrs, opt)
		if err != nil {
			t.Fatal(err)
		}
		cut := 1 + r.Intn(rel.NumRows()-1)
		if _, err := inc.Append(rel.Rows[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Append(rel.Rows[cut:]); err != nil {
			t.Fatal(err)
		}
		got := inc.FDs()
		want := naive.Discover(rel)
		if !got.Equal(want) {
			t.Fatalf("iter %d (cut %d):\ngot %v\nwant %v", iter, cut, got.Slice(), want.Slice())
		}
		if inc.Appends != 2 || inc.NumRows() != rel.NumRows() {
			t.Errorf("bookkeeping wrong: %d appends, %d rows", inc.Appends, inc.NumRows())
		}
	}
}

func TestIncrementalDefaultInvariants(t *testing.T) {
	// Default options across three batches: output is a non-trivial
	// antichain and every true FD has a generalization in it.
	r := rand.New(rand.NewSource(179))
	rel := randomRelation(r, 90, 5, 3)
	inc, err := NewIncremental("t", rel.Attrs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range [][2]int{{0, 30}, {30, 60}, {60, 90}} {
		stats, err := inc.Append(rel.Rows[span[0]:span[1]])
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rows != span[1] {
			t.Errorf("batch stats rows = %d, want %d", stats.Rows, span[1])
		}
	}
	got := inc.FDs()
	got.ForEach(func(f fdset.FD) {
		if f.IsTrivial() {
			t.Errorf("trivial FD %v", f)
		}
	})
	truth := naive.Discover(rel)
	truth.ForEach(func(tf fdset.FD) {
		ok := false
		got.ForEach(func(gf fdset.FD) {
			if gf.Generalizes(tf) {
				ok = true
			}
		})
		if !ok {
			t.Errorf("true FD %v not generalized", tf)
		}
	})
}

func TestIncrementalConstantColumnFlips(t *testing.T) {
	// A column constant in batch one becomes varying in batch two: the ∅
	// seed must fire on the second append.
	inc, err := NewIncremental("t", []string{"A", "B"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append([][]string{{"x", "1"}, {"x", "2"}}); err != nil {
		t.Fatal(err)
	}
	// After batch one: A constant ⟹ ∅ → A.
	if !inc.FDs().Contains(fdset.FD{LHS: fdset.EmptySet(), RHS: 0}) {
		t.Fatalf("constant column not reported: %v", inc.FDs().Slice())
	}
	if _, err := inc.Append([][]string{{"y", "3"}}); err != nil {
		t.Fatal(err)
	}
	rel := dataset.MustNew("t", []string{"A", "B"},
		[][]string{{"x", "1"}, {"x", "2"}, {"y", "3"}})
	want := naive.Discover(rel)
	if got := inc.FDs(); !got.Equal(want) {
		t.Fatalf("after flip:\ngot %v\nwant %v", got.Slice(), want.Slice())
	}
}

func TestIncrementalTooWide(t *testing.T) {
	attrs := make([]string, fdset.MaxAttrs+1)
	if _, err := NewIncremental("t", attrs, DefaultOptions()); err == nil {
		t.Fatal("over-wide schema accepted")
	}
}

func TestIncrementalNoColumns(t *testing.T) {
	inc, err := NewIncremental("t", nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(nil); err != nil {
		t.Fatal(err)
	}
	if inc.FDs().Len() != 0 {
		t.Error("no-column schema should yield no FDs")
	}
}
