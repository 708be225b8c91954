package core

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"eulerfd/internal/naive"
)

// clone returns an independent copy of the model, so a batch can be built
// against it and kept only if the Incremental commits it.
func (m *mutationModel) clone() *mutationModel {
	return &mutationModel{
		attrs:  m.attrs,
		rows:   append([][]string(nil), m.rows...),
		ids:    append([]int64(nil), m.ids...),
		nextID: m.nextID,
	}
}

// FuzzIncrementalApply drives an Incremental through a bootstrap and up
// to four mixed append/delete/update batches, some cancelled, and checks
// it against the brute-force oracle. The input decodes as: bytes 0–7 a
// seed, byte 8 the column count (1–6), byte 9 the bootstrap rows (1–12),
// byte 10 the value domain (1–4), byte 11 the batch count (0–4), byte 12
// flags — bit 0 pads the schema with constant columns to 66–129 columns
// (byte 13 picks how many), bits 1–4 cancel batch k, bit 5 runs two
// workers. Rows and batches are drawn from the seed.
//
// Under ExhaustWindows every committed version must equal naive.Discover
// on the surviving rows, plus ∅ → c for every pad column. A batch
// cancelled from its "sampled" progress snapshot must leave the version,
// the next id, the row count and the cover unchanged (packing may still
// have widened the encoder's lanes, which changes no label).
func FuzzIncrementalApply(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		for _, flags := range []byte{0, 1, 0b11010, 0b111111} {
			data := binary.LittleEndian.AppendUint64(nil, seed)
			f.Add(append(data, byte(seed+2), byte(seed*5), byte(seed), 4, flags, byte(seed*37)))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		var seed uint64
		for i := 0; i < 8; i++ {
			seed |= uint64(at(i)) << (8 * i)
		}
		r := rand.New(rand.NewSource(int64(seed)))
		cols := 1 + int(at(8))%6
		nrows := 1 + int(at(9))%12
		domain := 1 + int(at(10))%4
		batches := int(at(11)) % 5
		flags := at(12)
		width := cols
		if flags&1 != 0 {
			width = 66 + int(at(13))%64
		}

		m := &mutationModel{attrs: make([]string, cols)}
		for i := range m.attrs {
			m.attrs[i] = string(rune('A' + i))
		}
		pos := spreadPositions(cols, width)
		pad := func(b MutationBatch) MutationBatch { return padBatch(b, pos, width) }
		opt := exhaustiveOptions()
		opt.Workers = 1 + int(flags>>5&1)
		inc, err := NewIncremental("fuzz", spreadAttrs(m.attrs, pos, width), opt)
		if err != nil {
			t.Fatal(err)
		}
		check := func(when string) {
			t.Helper()
			want := paddedCover(naive.Discover(m.relation(t)), pos, width)
			if got := inc.FDs(); !got.Equal(want) {
				t.Fatalf("%s (%d rows):\ngot  %v\nwant %v", when, len(m.rows), got.Slice(), want.Slice())
			}
		}

		base := make([][]string, nrows)
		for i := range base {
			base[i] = randomRow(r, cols, domain)
		}
		m.append(base)
		if _, err := inc.Apply(pad(MutationBatch{Mutations: []Mutation{AppendOp(base)}})); err != nil {
			t.Fatal(err)
		}
		check("bootstrap")

		for bi := 0; bi < batches; bi++ {
			next := m.clone()
			batch := pad(randomBatch(r, next, domain))
			if flags>>(1+bi)&1 == 0 {
				if _, err := inc.Apply(batch); err != nil {
					t.Fatalf("batch %d: %v", bi, err)
				}
				m = next
				check("batch")
				continue
			}
			version, nextID, rows, fds := inc.Version(), inc.NextID(), inc.NumRows(), inc.FDs()
			ctx, cancel := context.WithCancel(context.Background())
			_, err := inc.ApplyContext(ctx, batch, func(p Progress) {
				if p.Phase == "sampled" {
					cancel()
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled batch %d: err = %v, want context.Canceled", bi, err)
			}
			if inc.Version() != version || inc.NextID() != nextID || inc.NumRows() != rows || !inc.FDs().Equal(fds) {
				t.Fatalf("cancelled batch %d moved state: version %d→%d, next id %d→%d, rows %d→%d",
					bi, version, inc.Version(), nextID, inc.NextID(), rows, inc.NumRows())
			}
			check("cancelled batch")
		}
	})
}
