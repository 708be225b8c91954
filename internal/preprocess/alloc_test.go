package preprocess

import (
	"testing"

	"eulerfd/internal/gen"
	"eulerfd/internal/testutil"
)

// assertZeroAllocs gates the memory-discipline contract of the batched
// kernels: their steady state must not allocate per call. Skipped under
// -race because the detector instruments allocations.
func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	fn() // warm up: grow scratch to the high-water mark first
	if allocs := testing.AllocsPerRun(10, fn); allocs != 0 {
		t.Errorf("%s: %.1f allocs per run, want 0", name, allocs)
	}
}

// benchEncoding is a mid-size UCI-style relation: 2000 rows, 12 columns,
// low cardinality so clusters are long and the window kernel sweeps real
// runs of duplicate masks.
func benchEncoding() *Encoded {
	return Encode(gen.UCITable("bench", 2000, 12, true, 4, 17))
}

// largestCluster returns the biggest single-attribute cluster, the shape
// the sampler's window sweeps spend their time on.
func largestCluster(enc *Encoded) []int32 {
	var best []int32
	for _, c := range enc.AllClusters() {
		if len(c.Rows) > len(best) {
			best = c.Rows
		}
	}
	return best
}

// TestAgreeWindowWordsAllocFree pins the window kernel at one mask word
// (the UCI shape).
func TestAgreeWindowWordsAllocFree(t *testing.T) {
	assertWindowAllocFree(t, benchEncoding())
}

// TestAgreeWindowIntoAllocFree pins the window kernel at two mask words
// (80 columns).
func TestAgreeWindowIntoAllocFree(t *testing.T) {
	assertWindowAllocFree(t, Encode(gen.WideSparseTuned("wide", 120, 80, 0.1, 0.3, 13)))
}

// assertWindowAllocFree sweeps enc's largest cluster at window 2.
func assertWindowAllocFree(t *testing.T, enc *Encoded) {
	t.Helper()
	rows := largestCluster(enc)
	masks := make([]uint64, (len(rows)-1)*MaskWords(len(enc.Attrs)))
	assertZeroAllocs(t, "AgreeWindowWords "+enc.Name, func() {
		enc.AgreeWindowWords(rows, 2, 0, len(rows)-1, masks)
	})
}

// TestAgreeSlotsWordsAllocFree pins the delta kernel at one mask word
// (lineitem) and at two (80 columns).
func TestAgreeSlotsWordsAllocFree(t *testing.T) {
	wide := NewEncoder(make([]string, 80))
	if err := wide.Append(gen.WideSparseTuned("wide", 120, 80, 0.1, 0.3, 13).Rows); err != nil {
		t.Fatal(err)
	}
	tall, _ := benchEncoder()
	for _, e := range []*Encoder{tall, wide} {
		slots := e.AliveSlots(nil)
		row := e.Row(0)
		masks := make([]uint64, len(slots)*MaskWords(len(e.attrs)))
		assertZeroAllocs(t, "AgreeSlotsWords", func() {
			e.AgreeSlotsWords(row, slots, masks)
		})
	}
}

// TestAgreeRowWordsAllocFree pins the row-against-many kernel at one mask
// word.
func TestAgreeRowWordsAllocFree(t *testing.T) {
	enc := benchEncoding()
	others := make([]int32, enc.NumRows)
	for j := range others {
		others[j] = int32(j)
	}
	masks := make([]uint64, enc.NumRows*MaskWords(len(enc.Attrs)))
	assertZeroAllocs(t, "AgreeRowWords", func() {
		enc.AgreeRowWords(0, others, masks)
	})
}

func TestCountViolationsWithAllocFree(t *testing.T) {
	enc := benchEncoding()
	sc := NewMeasureScratch()
	assertZeroAllocs(t, "CountViolationsWith", func() {
		enc.CountViolationsWith(enc.Partitions[1], 2, sc)
	})
}

// TestProductWithAllocsOnlyOutput pins the join kernel's allocation
// profile: everything transient lives in the scratch, so a steady-state
// product performs exactly the two allocations of its retained output
// (the flat row array and the cluster header slice).
func TestProductWithAllocsOnlyOutput(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	enc := benchEncoding()
	sc := NewJoinScratch()
	p, q := enc.Partitions[1], enc.Partitions[2]
	ProductWith(p, q, enc.NumRows, sc) // warm up the scratch
	allocs := testing.AllocsPerRun(10, func() {
		ProductWith(p, q, enc.NumRows, sc)
	})
	if allocs > 2 {
		t.Errorf("ProductWith: %.1f allocs per run, want <= 2 (output only)", allocs)
	}
}

func BenchmarkAgreeWindowWords(b *testing.B) {
	enc := benchEncoding()
	rows := largestCluster(enc)
	n := len(rows) - 1
	masks := make([]uint64, n)
	b.SetBytes(int64(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.AgreeWindowWords(rows, 2, 0, n, masks)
	}
}

// tallEncoding is sample-tall's relation: lineitem 40,000×16, whose
// largest column has 17,306 labels (16-bit lanes). At 32 bytes a row its
// packed rows span about 1.2 MiB, beyond L2, so the window kernel is
// timed with the memory traffic it has inside the sampler.
func tallEncoding() *Encoded {
	return Encode(gen.Lineitem("lineitem", 40000, 1))
}

// BenchmarkAgreeWindowWordsTall sweeps every cluster of the tall
// relation in cluster order at windows 2–4, the sampler's first passes.
func BenchmarkAgreeWindowWordsTall(b *testing.B) {
	enc := tallEncoding()
	clusters := enc.AllClusters()
	masks := make([]uint64, enc.NumRows)
	pairs := 0
	for _, cl := range clusters {
		for window := 2; window <= 4 && window <= len(cl.Rows); window++ {
			pairs += len(cl.Rows) - window + 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cl := range clusters {
			for window := 2; window <= 4 && window <= len(cl.Rows); window++ {
				enc.AgreeWindowWords(cl.Rows, window, 0, len(cl.Rows)-window+1, masks)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(pairs), "ns/pair")
}

// benchEncoder loads the tall relation into an Encoder and returns it
// with its alive slots, the delta scan's base.
func benchEncoder() (*Encoder, []int32) {
	rel := gen.Lineitem("lineitem", 40000, 1)
	e := NewEncoder(rel.Attrs)
	if err := e.Append(rel.Rows); err != nil {
		panic(err)
	}
	return e, e.AliveSlots(nil)
}

// BenchmarkAgreeSlotsWords times the delta scan's kernel: one row
// against every alive slot of the tall relation.
func BenchmarkAgreeSlotsWords(b *testing.B) {
	e, slots := benchEncoder()
	row := e.Row(len(slots) / 2)
	masks := make([]uint64, len(slots))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AgreeSlotsWords(row, slots, masks)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(slots)), "ns/pair")
}

func BenchmarkProductWith(b *testing.B) {
	enc := benchEncoding()
	sc := NewJoinScratch()
	p, q := enc.Partitions[1], enc.Partitions[2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ProductWith(p, q, enc.NumRows, sc)
	}
}

func BenchmarkCountViolationsWith(b *testing.B) {
	enc := benchEncoding()
	sc := NewMeasureScratch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc.CountViolationsWith(enc.Partitions[1], 2, sc)
	}
}
