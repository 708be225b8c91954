package preprocess

import (
	"fmt"
	"math/rand"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
)

// fromLabels builds an Encoded relation from label literals, one []int32
// per row, packed at the width the largest label needs. Labels need not
// be dense, so no partitions are built: it serves the agree kernels only.
func fromLabels(ncols int, rows [][]int32) *Encoded {
	e := &Encoded{Name: "literal", Attrs: make([]string, ncols), NumRows: len(rows), NumLabels: make([]int, ncols)}
	most := 0
	for _, row := range rows {
		for c, l := range row {
			e.NumLabels[c] = max(e.NumLabels[c], int(l)+1)
			most = max(most, int(l)+1)
		}
	}
	e.rows = newPackedRows(ncols, laneFormatFor(most))
	for _, row := range rows {
		e.rows.appendRow(row)
	}
	return e
}

// eqMask01 returns 1 when two labels are equal and 0 otherwise, without a
// branch: for x = a XOR b, x|(−x) has its sign bit set exactly when
// x ≠ 0.
func eqMask01(a, b int32) uint64 {
	x := uint32(a ^ b)
	return uint64((x|(-x))>>31) ^ 1
}

// refAgree is the per-column reference of every agree kernel: one word per
// 64-column block, bit c set when the rows share column c's label.
func refAgree(ri, rj []int32) fdset.AttrSet {
	var s fdset.AttrSet
	for c := 0; c < len(ri); {
		end := min(c+64, len(ri))
		var w uint64
		lo := c
		for ; c < end; c++ {
			w |= eqMask01(ri[c], rj[c]) << uint(c-lo)
		}
		s.SetWord(lo>>6, w)
	}
	return s
}

// fuzzLabel maps a byte to a label whose bits stress one lane width: 0
// and 1, top/2 and top/2+1 (every bit below the lane's highest used bit
// vs that bit alone), top−1 and top, or a byte-scaled value in between.
func fuzzLabel(v byte, top int32) int32 {
	switch v % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return top / 2
	case 3:
		return top/2 + 1
	case 4:
		return top - 1
	case 5:
		return top
	default:
		return int32(uint64(v) * uint64(top) / 255)
	}
}

// decodeAgreeCase turns fuzz bytes into a relation of 1–fdset.MaxAttrs
// columns × 1–64 rows and a sequence of row indices: byte 0 and the low
// bit of byte 1 pick the width, the rest of byte 1 the height, byte 2 the
// label range (up to 2^8−1, 2^16−1 or 2^31−1, so every lane width runs
// without tens of thousands of rows), then one byte per cell (missing
// ones read as 0) and one per sequence entry.
func decodeAgreeCase(data []byte) (ncols int, rows [][]int32, seq []int32) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	ncols = 1 + (int(at(0))|int(at(1)&1)<<8)%fdset.MaxAttrs
	nrows := 1 + int(at(1)>>1)%64
	top := [...]int32{1<<8 - 1, 1<<16 - 1, 1<<31 - 1}[int(at(2))%3]
	next := 3
	rows = make([][]int32, nrows)
	for r := range rows {
		rows[r] = make([]int32, ncols)
		for c := range rows[r] {
			rows[r][c] = fuzzLabel(at(next), top)
			next++
		}
	}
	for ; next < len(data); next++ {
		seq = append(seq, int32(int(data[next])%nrows))
	}
	if len(seq) < 2 {
		seq = append(seq, 0, int32(nrows-1))
	}
	return ncols, rows, seq
}

// FuzzPackedAgree checks every agree kernel against the per-column
// reference over the label literals, at every lane width and at one, two
// and six mask words per pair.
func FuzzPackedAgree(f *testing.F) {
	r := rand.New(rand.NewSource(5))
	for _, ncols := range []int{1, 5, 16, 17, 64, 65, 80, 128, 129, 330, 384} {
		for scale := 0; scale < 3; scale++ {
			nrows := 2 + r.Intn(20)
			data := []byte{byte(ncols - 1), byte((nrows-1)<<1 | (ncols-1)>>8), byte(scale)}
			for k := 0; k < ncols*nrows+12; k++ {
				data = append(data, byte(r.Intn(256)))
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ncols, rows, seq := decodeAgreeCase(data)
		enc := fromLabels(ncols, rows)
		want := func(i, j int32) fdset.AttrSet { return refAgree(rows[i], rows[j]) }
		for c := 0; c < ncols; c++ {
			for r := range rows {
				if got := enc.Lane(c).At(int32(r)); got != rows[r][c] {
					t.Fatalf("Lane(%d).At(%d) = %d, want %d", c, r, got, rows[r][c])
				}
			}
		}
		mw := MaskWords(ncols)
		// masksEqual reports whether mask words m hold exactly set w.
		masksEqual := func(m []uint64, w fdset.AttrSet) bool {
			for k := 0; k < fdset.NumWords; k++ {
				if k < len(m) && m[k] != w.Word(k) || k >= len(m) && w.Word(k) != 0 {
					return false
				}
			}
			return true
		}
		n := len(seq)
		sets := make([]fdset.AttrSet, n)
		masks := make([]uint64, n*mw)
		enc.AgreeSetsInto(int(seq[0]), seq, sets)
		for k, o := range seq {
			if w := want(seq[0], o); sets[k] != w || enc.AgreeSet(int(seq[0]), int(o)) != w {
				t.Fatalf("AgreeSetsInto/AgreeSet(%d,%d) = %v, want %v", seq[0], o, sets[k], w)
			}
		}
		window := 2 + int(seq[0])%(n-1)
		m := n - window + 1
		enc.AgreeWindowWords(seq, window, 0, m, masks)
		for p := 0; p < m; p++ {
			if w := want(seq[p], seq[p+window-1]); !masksEqual(masks[p*mw:p*mw+mw], w) {
				t.Fatalf("AgreeWindowWords window %d pos %d = %#x, want %v", window, p, masks[p*mw:p*mw+mw], w)
			}
		}
		// The encoder's delta kernels read the same layout.
		e := &Encoder{rows: enc.rows}
		row := enc.rows.row(int(seq[0]))
		e.AgreeSlotsWords(row, seq, masks)
		one := make([]uint64, mw)
		for k, o := range seq {
			w := want(seq[0], o)
			e.AgreeRowsWords(row, enc.rows.row(int(o)), one)
			if !masksEqual(masks[k*mw:k*mw+mw], w) || !masksEqual(one, w) {
				t.Fatalf("AgreeSlotsWords/AgreeRowsWords(%d,%d) = %#x / %#x, want %v", seq[0], o, masks[k*mw:k*mw+mw], one, w)
			}
		}
	})
}

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
