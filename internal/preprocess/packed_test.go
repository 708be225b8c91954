package preprocess

import (
	"fmt"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
)

// snapshotView records what a snapshot answers when taken: every label
// and the agree mask of every adjacent row pair.
type snapshotView struct {
	enc    *Encoded
	width  uint
	labels [][]int32
	masks  []fdset.AttrSet
}

func viewOf(enc *Encoded) snapshotView {
	v := snapshotView{enc: enc, width: enc.rows.f.width}
	for c := range enc.Attrs {
		col := make([]int32, enc.NumRows)
		for r := range col {
			col[r] = enc.Lane(c).At(int32(r))
		}
		v.labels = append(v.labels, col)
	}
	for r := 0; r+1 < enc.NumRows; r++ {
		v.masks = append(v.masks, enc.AgreeSet(r, r+1))
	}
	return v
}

// check fails unless the snapshot still answers as it did when viewed.
func (v snapshotView) check(t *testing.T, name string) {
	t.Helper()
	if now := viewOf(v.enc); fmt.Sprint(now.labels) != fmt.Sprint(v.labels) || fmt.Sprint(now.masks) != fmt.Sprint(v.masks) {
		t.Errorf("%s: snapshot changed after later encoder mutations", name)
	}
}

// TestEncoderLaneLifecycle drives one encoder through both widenings, an
// in-place update under a shared snapshot, and a compaction that narrows
// the lanes again; every snapshot must keep its original labels and
// masks, and the compacted encoder must match a fresh encoding of the
// surviving rows.
func TestEncoderLaneLifecycle(t *testing.T) {
	var all [][]string
	row := func(i int) []string {
		return []string{fmt.Sprintf("v%d", i), fmt.Sprint(i % 3), fmt.Sprint(i % 7)}
	}
	e := NewEncoder([]string{"A", "B", "C"})
	appendTo := func(n int) {
		var rows [][]string
		for i := len(all); i < n; i++ {
			rows = append(rows, row(i))
		}
		if err := e.Append(rows); err != nil {
			t.Fatal(err)
		}
		all = append(all, rows...)
	}
	var views []snapshotView
	snap := func(wantWidth int) {
		t.Helper()
		if got := e.LaneWidth(); got != wantWidth {
			t.Fatalf("after %d rows: lane width %d, want %d", len(all), got, wantWidth)
		}
		views = append(views, viewOf(e.Snapshot("s")))
	}

	appendTo(1 << 8) // column A holds exactly 2^8 labels: still 8 bits
	snap(8)
	appendTo(1<<8 + 1)
	snap(16)
	appendTo(1 << 16)
	snap(16)
	appendTo(1<<16 + 1)
	snap(32)

	// Rewrite row 0 while the last snapshot shares the spine's words.
	if !e.Replace(0, []int32{e.rows.label(1, 0), e.rows.label(1, 1), e.rows.label(1, 2)}) {
		t.Fatal("Replace(0) failed")
	}
	all[0] = all[1]
	snap(32)

	// Keep 100 rows, dropping every label of A past them, then compact.
	for id := int64(100); id < int64(len(all)); id++ {
		if !e.Delete(id) {
			t.Fatalf("Delete(%d) failed", id)
		}
	}
	e.Compact()
	snap(8)
	fresh := Encode(dataset.MustNew("s", []string{"A", "B", "C"}, all[:100]))
	got := views[len(views)-1]
	if want := viewOf(fresh); fmt.Sprint(got.labels) != fmt.Sprint(want.labels) || fmt.Sprint(got.masks) != fmt.Sprint(want.masks) {
		t.Error("compacted encoder differs from a fresh encoding of the surviving rows")
	}
	for k, v := range views {
		v.check(t, fmt.Sprintf("snapshot %d (%d-bit)", k, v.width))
	}
}

// TestEncodeDerivesLaneWidth checks the width rule on one-shot encoding
// — 8 bits up to 2^8 labels in the largest column, 16 up to 2^16, 32
// above — and that narrowing from the row-count bound keeps every label
// equal to its value's first-occurrence number.
func TestEncodeDerivesLaneWidth(t *testing.T) {
	for _, tc := range []struct{ rows, distinct, width int }{
		{300, 1 << 8, 8},
		{300, 1<<8 + 1, 16},
		{1<<16 + 1, 1 << 16, 16},
		{1<<16 + 1, 1<<16 + 1, 32},
	} {
		data := make([][]string, tc.rows)
		for i := range data {
			data[i] = []string{fmt.Sprint(i % tc.distinct), fmt.Sprint(i % 3)}
		}
		enc := Encode(dataset.MustNew("w", []string{"A", "B"}, data))
		if got := int(enc.rows.f.width); got != tc.width {
			t.Errorf("%d rows, %d labels: lane width %d, want %d", tc.rows, tc.distinct, got, tc.width)
		}
		for i := int32(0); i < int32(tc.rows); i++ {
			if a, b := enc.Lane(0).At(i), enc.Lane(1).At(i); int(a) != int(i)%tc.distinct || int(b) != int(i)%3 {
				t.Fatalf("%d rows, %d labels: row %d reads (%d,%d)", tc.rows, tc.distinct, i, a, b)
			}
		}
	}
}
