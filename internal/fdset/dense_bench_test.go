package fdset_test

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/preprocess"
)

// denseCover is EulerFD's cover of a letter-shaped 2000×17 relation
// (sixteen 16-valued image statistics and a 26-valued class): 40,582
// minimal FDs, the size a reader of an FD-dense result renders. It lives
// in an external test package because discovering it needs core, and
// core imports fdset.
var denseCover = sync.OnceValue(func() *fdset.Set {
	cols := make([]gen.ColSpec, 0, 17)
	for i := 0; i < 16; i++ {
		cols = append(cols, gen.ColSpec{Name: "stat" + string(rune('a'+i)), Kind: gen.NumericBucketed, Domain: 16})
	}
	cols = append(cols, gen.ColSpec{Name: "lettr", Kind: gen.Categorical, Domain: 26})
	enc := preprocess.Encode(gen.Generate(gen.Profile{Name: "letter", Rows: 2000, Cols: cols, Seed: 1}))
	fds, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
	return fds
})

// marshalSink keeps the benchmarked output live.
var marshalSink []byte

// BenchmarkSetMarshalJSON times rendering the dense cover as a reader
// gets it: one walk of the runs to size the output, one to write it.
func BenchmarkSetMarshalJSON(b *testing.B) {
	s := denseCover()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if marshalSink, err = s.MarshalJSON(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewSet times building the dense cover's set from its FDs in
// a fixed shuffled order: NewSet's copy, sort, dedupe and packing into
// runs, the path of every builder that starts from an FD slice.
func BenchmarkNewSet(b *testing.B) {
	want := denseCover()
	fds := want.Slice()
	rand.New(rand.NewSource(1)).Shuffle(len(fds), func(i, j int) { fds[i], fds[j] = fds[j], fds[i] })
	b.ReportAllocs()
	b.ResetTimer()
	var got *fdset.Set
	for i := 0; i < b.N; i++ {
		got = fdset.NewSet(fds...)
	}
	if !got.Equal(want) {
		b.Fatal("NewSet differs from the cover its FDs came from")
	}
}

// BenchmarkSortFDs times the canonical sort alone on the dense cover in
// a fixed shuffled order (the copy into the work slice is timed too).
func BenchmarkSortFDs(b *testing.B) {
	fds := denseCover().Slice()
	rand.New(rand.NewSource(1)).Shuffle(len(fds), func(i, j int) { fds[i], fds[j] = fds[j], fds[i] })
	work := make([]fdset.FD, len(fds))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, fds)
		fdset.SortFDs(work)
	}
	if !slices.IsSortedFunc(work, fdset.Compare) {
		b.Fatal("SortFDs left the cover unsorted")
	}
}
