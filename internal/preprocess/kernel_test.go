package preprocess

import (
	"fmt"
	"testing"

	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
)

// kernelEncodings are relations whose agree sets take one, two and six
// mask words.
func kernelEncodings(t *testing.T) []*Encoded {
	t.Helper()
	return []*Encoded{
		Encode(gen.UCITable("narrow", 300, 9, true, 4, 11)),
		Encode(gen.WideSparseTuned("wide", 120, 80, 0.1, 0.3, 13)),
		Encode(gen.WideSparseTuned("wide6", 60, 350, 0.1, 0.3, 13)),
	}
}

// TestAgreeRowWordsMatchesAgreeSet checks the row-against-many kernel
// at one, two and six mask words per pair.
func TestAgreeRowWordsMatchesAgreeSet(t *testing.T) {
	for _, enc := range kernelEncodings(t) {
		mw := MaskWords(len(enc.Attrs))
		others := make([]int32, enc.NumRows)
		for j := range others {
			others[j] = int32(j)
		}
		masks := make([]uint64, enc.NumRows*mw)
		for i := 0; i < enc.NumRows; i += 37 {
			enc.AgreeRowWords(i, others, masks)
			for j := 0; j < enc.NumRows; j++ {
				if got, want := fdset.FromWords(masks[j*mw:j*mw+mw]), enc.AgreeSet(i, j); got != want {
					t.Fatalf("%s: AgreeRowWords(%d)[%d] = %v, want %v", enc.Name, i, j, got, want)
				}
			}
		}
	}
}

// TestAgreeWindowWordsMatchesAgreeSet checks the window kernel at one
// mask word per pair.
func TestAgreeWindowWordsMatchesAgreeSet(t *testing.T) {
	checkWindowKernel(t, kernelEncodings(t)[:1])
}

// TestAgreeWindowIntoMatchesAgreeSet checks the window kernel writing two
// and six mask words per pair into the caller's flat buffer.
func TestAgreeWindowIntoMatchesAgreeSet(t *testing.T) {
	checkWindowKernel(t, kernelEncodings(t)[1:])
}

// checkWindowKernel compares every window of every cluster, and a
// sub-range sweep, with AgreeSet.
func checkWindowKernel(t *testing.T, encs []*Encoded) {
	t.Helper()
	for _, enc := range encs {
		mw := MaskWords(len(enc.Attrs))
		for _, cl := range enc.AllClusters() {
			for window := 2; window <= len(cl.Rows) && window <= 5; window++ {
				n := len(cl.Rows) - window + 1
				masks := make([]uint64, n*mw)
				enc.AgreeWindowWords(cl.Rows, window, 0, n, masks)
				for p := 0; p < n; p++ {
					want := enc.AgreeSet(int(cl.Rows[p]), int(cl.Rows[p+window-1]))
					if got := fdset.FromWords(masks[p*mw : p*mw+mw]); got != want {
						t.Fatalf("%s: window %d pos %d = %v, want %v", enc.Name, window, p, got, want)
					}
				}
			}
			// Sub-range invocation must match the full sweep shifted.
			if len(cl.Rows) >= 6 {
				n := len(cl.Rows) - 1
				full := make([]uint64, n*mw)
				enc.AgreeWindowWords(cl.Rows, 2, 0, n, full)
				sub := make([]uint64, 3*mw)
				enc.AgreeWindowWords(cl.Rows, 2, 2, 5, sub)
				if fmt.Sprint(sub) != fmt.Sprint(full[2*mw:5*mw]) {
					t.Fatalf("%s: sub-range %#x, want %#x", enc.Name, sub, full[2*mw:5*mw])
				}
			}
		}
	}
}

func TestAttrSetWords(t *testing.T) {
	s := fdset.NewAttrSet(0, 63, 64, 130)
	if s.Word(0) != 1|1<<63 {
		t.Errorf("Word(0) = %x", s.Word(0))
	}
	if s.Word(1) != 1 {
		t.Errorf("Word(1) = %x", s.Word(1))
	}
	var r fdset.AttrSet
	for i := 0; i < fdset.NumWords; i++ {
		r.SetWord(i, s.Word(i))
	}
	if r != s {
		t.Error("SetWord round trip lost bits")
	}
}
