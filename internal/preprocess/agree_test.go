package preprocess_test

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"eulerfd/internal/cover"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

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
// and six mask words per pair, and holds the all-pairs collector to a
// map that deduplicates the reference agree sets.
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
		enc, e := preprocess.FromLabels(ncols, rows)
		want := func(i, j int32) fdset.AttrSet { return refAgree(rows[i], rows[j]) }
		for c := 0; c < ncols; c++ {
			for r := range rows {
				if got := enc.Lane(c).At(int32(r)); got != rows[r][c] {
					t.Fatalf("Lane(%d).At(%d) = %d, want %d", c, r, got, rows[r][c])
				}
			}
		}
		mw := preprocess.MaskWords(ncols)
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
		masks := make([]uint64, n*mw)
		enc.AgreeRowWords(int(seq[0]), seq, masks)
		for k, o := range seq {
			if w := want(seq[0], o); !masksEqual(masks[k*mw:k*mw+mw], w) || enc.AgreeSet(int(seq[0]), int(o)) != w {
				t.Fatalf("AgreeRowWords/AgreeSet(%d,%d) = %#x / %v, want %v", seq[0], o, masks[k*mw:k*mw+mw], enc.AgreeSet(int(seq[0]), int(o)), w)
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
		row := e.Row(int(seq[0]))
		e.AgreeSlotsWords(row, seq, masks)
		one := make([]uint64, mw)
		for k, o := range seq {
			w := want(seq[0], o)
			e.AgreeRowsWords(row, e.Row(int(o)), one)
			if !masksEqual(masks[k*mw:k*mw+mw], w) || !masksEqual(one, w) {
				t.Fatalf("AgreeSlotsWords/AgreeRowsWords(%d,%d) = %#x / %#x, want %v", seq[0], o, masks[k*mw:k*mw+mw], one, w)
			}
		}
		// The all-pairs collector keeps each distinct agree set once, ∅
		// included, in the order its row-by-row sweep first meets it.
		var wantSets []fdset.AttrSet
		have := map[fdset.AttrSet]bool{}
		for i := range rows {
			for j := i + 1; j < len(rows); j++ {
				if w := want(int32(i), int32(j)); !have[w] {
					have[w] = true
					wantSets = append(wantSets, w)
				}
			}
		}
		wantPairs := len(rows) * (len(rows) - 1) / 2
		sets, pairs, err := cover.AllAgreeSets(context.Background(), enc)
		if err != nil || pairs != wantPairs || !slices.Equal(sets, wantSets) {
			t.Fatalf("AllAgreeSets = %v, %d pairs, %v; want %v, %d pairs", sets, pairs, err, wantSets, wantPairs)
		}
	})
}

// BenchmarkAllAgreeSets times the all-pairs collector of the exact
// baselines on the registry's abalone (2000 rows, 1,999,000 pairs, 142
// distinct agree sets): the row-against-many kernel and the mask dedup.
func BenchmarkAllAgreeSets(b *testing.B) {
	d, err := datasets.ByName("abalone")
	if err != nil {
		b.Fatal(err)
	}
	enc := preprocess.Encode(d.Build())
	pairs := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, n, err := cover.AllAgreeSets(context.Background(), enc)
		if err != nil {
			b.Fatal(err)
		}
		pairs = n
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
}
