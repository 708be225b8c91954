package afd_test

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"eulerfd/internal/afd"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// naiveG1 recomputes g1 for lhs → rhs by comparing every ordered pair of
// distinct rows: a pair violates when it agrees on lhs and not on rhs.
func naiveG1(enc *preprocess.Encoded, lhs fdset.AttrSet, rhs int) float64 {
	n := enc.NumRows
	if n == 0 {
		return 0
	}
	violating := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u == v || enc.Lane(rhs).At(int32(u)) == enc.Lane(rhs).At(int32(v)) {
				continue
			}
			agree := true
			lhs.ForEach(func(a int) bool {
				agree = enc.Lane(a).At(int32(u)) == enc.Lane(a).At(int32(v))
				return agree
			})
			if agree {
				violating++
			}
		}
	}
	return float64(violating) / (float64(n) * float64(n))
}

// bruteThreshold scores every LHS of every RHS and keeps the minimal
// X → A within eps: the full answer threshold discovery must return.
func bruteThreshold(enc *preprocess.Encoded, score func(*preprocess.Encoded, fdset.AttrSet, int) float64, eps float64) map[fdset.FD]float64 {
	m := len(enc.Attrs)
	out := map[fdset.FD]float64{}
	for a := 0; a < m; a++ {
		within := map[fdset.AttrSet]float64{}
		for mask := 0; mask < 1<<m; mask++ {
			if mask&(1<<a) != 0 {
				continue
			}
			var x fdset.AttrSet
			for b := 0; b < m; b++ {
				if mask&(1<<b) != 0 {
					x.Add(b)
				}
			}
			if s := score(enc, x, a); s <= eps {
				within[x] = s
			}
		}
		for x, s := range within {
			minimal := true
			for y := range within {
				if y != x && y.IsSubsetOf(x) {
					minimal = false
					break
				}
			}
			if minimal {
				out[fdset.FD{LHS: x, RHS: a}] = s
			}
		}
	}
	return out
}

// dirtyRelation is A → B over 100 rows with one dirty row: g3 = 1/100.
func dirtyRelation() *dataset.Relation {
	rows := make([][]string, 100)
	for i := range rows {
		a := i % 10
		rows[i] = []string{string(rune('a' + a)), string(rune('A' + a))}
	}
	rows[0][1] = "Z"
	return dataset.MustNew("dirty", []string{"A", "B"}, rows)
}

// TestDiscoverThresholdMatchesBruteForce checks that threshold discovery
// returns exactly the minimal dependencies within the error budget —
// none unsound, none missing — with their exact scores, and that raising
// the budget keeps every accepted dependency (verbatim or generalized).
func TestDiscoverThresholdMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(163))
	rels := []*dataset.Relation{dirtyRelation(), dataset.MustNew("none", nil, nil)}
	for i := 0; i < 40; i++ {
		rel := randomRelation(r, r.Intn(30), 1+r.Intn(6), 1+r.Intn(3))
		rel.Name = "random-" + strconv.Itoa(i)
		rels = append(rels, rel)
	}
	measures := []struct {
		m     afd.Measure
		score func(*preprocess.Encoded, fdset.AttrSet, int) float64
	}{{afd.G3, naiveG3}, {afd.G1, naiveG1}}
	for _, rel := range rels {
		enc := preprocess.Encode(rel)
		s := afd.NewScorer(enc, 0)
		for _, ms := range measures {
			var prev []fdset.ScoredFD
			for _, eps := range []float64{0, 0.01, 0.05, 0.1, 0.2} {
				cell := fmt.Sprintf("%s %s eps=%g", rel.Name, ms.m, eps)
				got, err := s.Discover(context.Background(), ms.m, eps)
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				want := bruteThreshold(enc, ms.score, eps)
				if len(got) != len(want) {
					t.Errorf("%s: %d results, brute force has %d\ngot  %v\nwant %v", cell, len(got), len(want), got, want)
				}
				for _, sf := range got {
					if score, ok := want[sf.FD]; !ok || score != sf.Score {
						t.Errorf("%s: %v not in the brute-force answer (score %v, found %v)", cell, sf, score, ok)
					}
				}
				for _, lo := range prev {
					generalized := false
					for _, hi := range got {
						generalized = generalized || hi.FD.Generalizes(lo.FD)
					}
					if !generalized {
						t.Errorf("%s: %v accepted at a smaller budget is lost", cell, lo.FD)
					}
				}
				prev = got
			}
		}
	}

	// The dirty row hides A → B from exact discovery; a 1% budget finds it.
	enc := preprocess.Encode(dirtyRelation())
	s := afd.NewScorer(enc, 0)
	rule := fdset.NewFD([]int{0}, 1)
	for eps, want := range map[float64]bool{0: false, 0.01: true} {
		got, err := s.Discover(context.Background(), afd.G3, eps)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, sf := range got {
			found = found || sf.FD == rule
		}
		if found != want {
			t.Errorf("dirty relation at eps=%g: A -> B found = %v, want %v", eps, found, want)
		}
	}
}
