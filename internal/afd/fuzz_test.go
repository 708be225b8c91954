package afd_test

import (
	"context"
	"fmt"
	"testing"

	"eulerfd/internal/afd"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// FuzzAFDScore decodes a tiny relation plus a candidate dependency from
// the fuzz input and checks the scoring invariants that must hold for
// any input: scores stay in [0, 1], g3/g1 are zero exactly when the FD
// holds, and adding an LHS attribute never increases an anti-monotone
// measure. It then ranks every X → r with X ⊆ lhs ∪ {extra} — empty,
// duplicate and nested LHSs included — and checks the full ranking, and
// its first k entries at k = 1, 2 and 3, where Rank's branch-and-bound
// cut runs, against the canonical oracle. Wired into the CI fuzz-smoke
// job next to the other targets.
func FuzzAFDScore(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(3), uint8(0b01), uint8(2), uint8(0))
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(0b10), uint8(0), uint8(1))
	f.Add([]byte{9, 8, 7, 6, 5, 4}, uint8(1), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, cells []byte, colsRaw, lhsMask, rhsRaw, extraRaw uint8) {
		cols := int(colsRaw%6) + 1
		nrows := len(cells) / cols
		if nrows == 0 || nrows > 64 {
			t.Skip()
		}
		rows := make([][]string, nrows)
		for i := range rows {
			row := make([]string, cols)
			for j := range row {
				row[j] = fmt.Sprintf("%d", cells[i*cols+j]%5)
			}
			rows[i] = row
		}
		attrs := make([]string, cols)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("c%d", j)
		}
		rel, err := dataset.New("fuzz", attrs, rows)
		if err != nil {
			t.Skip()
		}
		enc := preprocess.Encode(rel)
		s := afd.NewScorer(enc, 4)

		rhs := int(rhsRaw) % cols
		var lhs fdset.AttrSet
		for a := 0; a < cols; a++ {
			if lhsMask&(1<<a) != 0 && a != rhs {
				lhs.Add(a)
			}
		}
		holds := enc.ConstantOn(enc.PartitionOf(lhs), rhs)
		for _, m := range afd.Measures() {
			score := s.Score(m, lhs, rhs)
			if score < 0 || score > 1 {
				t.Fatalf("%s score %v outside [0, 1] for %v -> %d", m, score, lhs, rhs)
			}
			if m == afd.G3 || m == afd.G1 {
				if holds && score != 0 {
					t.Fatalf("%s = %v for exact FD %v -> %d", m, score, lhs, rhs)
				}
				if !holds && score == 0 {
					t.Fatalf("%s = 0 for violated FD %v -> %d", m, lhs, rhs)
				}
			}
		}
		extra := int(extraRaw) % cols
		if extra != rhs && !lhs.Has(extra) {
			wider := lhs.With(extra)
			for _, m := range []afd.Measure{afd.G3, afd.G1} {
				if s.Score(m, wider, rhs) > s.Score(m, lhs, rhs) {
					t.Fatalf("%s increased when widening %v to %v (rhs %d)", m, lhs, wider, rhs)
				}
			}
		}

		base := lhs.With(extra).Attrs()
		var seeds []fdset.FD
		for mask := 0; mask < 1<<len(base); mask++ {
			var x fdset.AttrSet
			for i, a := range base {
				if mask&(1<<i) != 0 {
					x.Add(a)
				}
			}
			for r := 0; r < cols; r++ {
				seeds = append(seeds, fdset.FD{LHS: x, RHS: r})
			}
		}
		cands := oracleCandidates(enc, seeds)
		for _, m := range afd.Measures() {
			want := oracleRanking(s, enc, cands, m)
			for _, k := range []int{1, 2, 3, len(cands)} {
				got, err := s.Rank(context.Background(), m, seeds, k)
				if err != nil {
					t.Fatal(err)
				}
				if diff := rankingDiff(got, want[:min(k, len(want))]); diff != "" {
					t.Fatalf("%s, k=%d: Rank departs from the canonical oracle: %s", m, k, diff)
				}
			}
		}
	})
}
