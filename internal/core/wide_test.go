package core

import (
	"fmt"
	"math/rand"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/naive"
)

// spreadRelation widens rel to width columns: rel's columns land at evenly
// spread positions — the first at 0, the last at width−1, so they fall in
// every 64-column mask word — and the remaining positions are filler
// columns whose cell in row i is fill(i, k) for the k-th filler. It
// returns the wide relation and each original column's position.
func spreadRelation(rel *dataset.Relation, width int, fill func(row, k int) string) (*dataset.Relation, []int) {
	pos := spreadPositions(len(rel.Attrs), width)
	rows := make([][]string, len(rel.Rows))
	for i, row := range rel.Rows {
		rows[i] = spreadRow(row, pos, width, func(k int) string { return fill(i, k) })
	}
	return dataset.MustNew(rel.Name, spreadAttrs(rel.Attrs, pos, width), rows), pos
}

// spreadAttrs places attrs at pos in a schema of width attributes, naming
// the filler columns pad0, pad1, ….
func spreadAttrs(attrs []string, pos []int, width int) []string {
	return spreadRow(attrs, pos, width, func(k int) string { return fmt.Sprintf("pad%d", k) })
}

// spreadPositions places ncols columns evenly over width positions, the
// first at 0 and the last at width−1.
func spreadPositions(ncols, width int) []int {
	pos := make([]int, ncols)
	for i := range pos {
		if ncols > 1 {
			pos[i] = i * (width - 1) / (ncols - 1)
		}
	}
	return pos
}

// spreadRow places row's cells at pos in a row of width cells, filling
// the other cells in order with fill(k).
func spreadRow(row []string, pos []int, width int, fill func(k int) string) []string {
	out := make([]string, width)
	set := make([]bool, width)
	for i, p := range pos {
		out[p], set[p] = row[i], true
	}
	k := 0
	for c := range out {
		if !set[c] {
			out[c] = fill(k)
			k++
		}
	}
	return out
}

// paddedCover maps a cover of the narrow relation onto the spread
// positions and adds ∅ → c for every constant filler column c.
func paddedCover(narrow *fdset.Set, pos []int, width int) *fdset.Set {
	out := fdset.NewSet()
	for _, fd := range narrow.Slice() {
		var lhs fdset.AttrSet
		for _, a := range fd.LHS.Attrs() {
			lhs.Add(pos[a])
		}
		out.Add(fdset.FD{LHS: lhs, RHS: pos[fd.RHS]})
	}
	isBase := make([]bool, width)
	for _, p := range pos {
		isBase[p] = true
	}
	for c := 0; c < width; c++ {
		if !isBase[c] {
			out.Add(fdset.FD{LHS: fdset.EmptySet(), RHS: c})
		}
	}
	return out
}

// padBatch widens every row of a mutation batch built against the narrow
// schema with constant filler cells.
func padBatch(b MutationBatch, pos []int, width int) MutationBatch {
	var out MutationBatch
	for _, m := range b.Mutations {
		wm := Mutation{Op: m.Op, IDs: m.IDs}
		for _, row := range m.Rows {
			wm.Rows = append(wm.Rows, spreadRow(row, pos, width, func(int) string { return "k" }))
		}
		out.Mutations = append(out.Mutations, wm)
	}
	return out
}

// TestConstantPaddingAcross64 pads relations with constant columns past
// one and two 64-column mask words. A constant column agrees on every
// pair and is determined by ∅, so under ExhaustWindows the cover must be
// exactly the unpadded cover plus ∅ → c per pad column — one-shot, and
// after an Incremental bootstrap and every mixed batch that follows, at
// one and several workers.
func TestConstantPaddingAcross64(t *testing.T) {
	bases := map[string]*dataset.Relation{
		"patient": patientRelation(),
		"uci":     gen.UCITable("uci", 60, 6, false, 3, 23),
	}
	constant := func(int, int) string { return "k" }
	for name, base := range bases {
		for _, width := range []int{70, 130} {
			wide, pos := spreadRelation(base, width, constant)
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%d/workers=%d", name, width, workers), func(t *testing.T) {
					opt := exhaustiveOptions()
					opt.Workers = workers
					got, _, err := Discover(wide, opt)
					if err != nil {
						t.Fatal(err)
					}
					if want := paddedCover(naive.Discover(base), pos, width); !got.Equal(want) {
						t.Fatalf("one-shot:\ngot  %v\nwant %v", got.Slice(), want.Slice())
					}

					r := rand.New(rand.NewSource(int64(width + workers)))
					m := &mutationModel{attrs: base.Attrs}
					inc, err := NewIncremental(name, wide.Attrs, opt)
					if err != nil {
						t.Fatal(err)
					}
					m.append(base.Rows)
					if _, err := inc.Append(wide.Rows); err != nil {
						t.Fatal(err)
					}
					for bi := 0; bi < 4; bi++ {
						if bi > 0 {
							if _, err := inc.Apply(padBatch(randomBatch(r, m, 3), pos, width)); err != nil {
								t.Fatalf("batch %d: %v", bi, err)
							}
						}
						want := paddedCover(naive.Discover(m.relation(t)), pos, width)
						if got := inc.FDs(); !got.Equal(want) {
							t.Fatalf("after batch %d:\ngot  %v\nwant %v", bi, got.Slice(), want.Slice())
						}
					}
				})
			}
		}
	}
}
