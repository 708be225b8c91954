package tane

import (
	"context"
	"math/rand"
	"testing"

	"eulerfd/internal/afd"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/naive"
	"eulerfd/internal/preprocess"
)

// The error-tolerant variant of TANE (Huhtala et al., Section 2.3) is
// served by g₃ threshold discovery in internal/afd. These tests hold it to
// TANE's exact search at zero error and keep TANE's tolerant-discovery
// cases.

// discoverApprox returns the minimal X → A with g₃(X → A) ≤ maxErr.
func discoverApprox(t *testing.T, enc *preprocess.Encoded, maxErr float64) *fdset.Set {
	t.Helper()
	scored, err := afd.NewScorer(enc, 0).Discover(context.Background(), afd.G3, maxErr)
	if err != nil {
		t.Fatal(err)
	}
	out := fdset.NewSet()
	for _, sf := range scored {
		out.Add(sf.FD)
	}
	return out
}

func TestDiscoverApproxZeroErrorIsExact(t *testing.T) {
	r := rand.New(rand.NewSource(151))
	for iter := 0; iter < 30; iter++ {
		rel := randomRelation(r, 2+r.Intn(25), 2+r.Intn(4), 1+r.Intn(3))
		enc := preprocess.Encode(rel)
		got := discoverApprox(t, enc, 0)
		want, _, err := DiscoverEncodedContext(context.Background(), enc)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("iter %d: approx(0) diverges from TANE\ngot %v\nwant %v", iter, got.Slice(), want.Slice())
		}
		if !want.Equal(naive.Discover(rel)) {
			t.Fatalf("iter %d: TANE diverges from the oracle", iter)
		}
	}
}

func TestDiscoverApproxTolerant(t *testing.T) {
	// A → B holds except for one dirty row out of 100: g₃ = 1/100.
	rows := make([][]string, 100)
	for i := range rows {
		a := i % 10
		rows[i] = []string{string(rune('a' + a)), string(rune('A' + a))}
	}
	rows[0][1] = "Z" // dirt: a0 maps to both Z and A
	rel := dataset.MustNew("dirty", []string{"A", "B"}, rows)
	enc := preprocess.Encode(rel)

	exact, _, err := DiscoverEncodedContext(context.Background(), enc)
	if err != nil {
		t.Fatal(err)
	}
	strict := discoverApprox(t, enc, 0)
	if exact.Contains(fdset.NewFD([]int{0}, 1)) || strict.Contains(fdset.NewFD([]int{0}, 1)) {
		t.Fatal("dirty FD should not hold exactly")
	}
	tolerant := discoverApprox(t, enc, 0.02)
	if !tolerant.Contains(fdset.NewFD([]int{0}, 1)) {
		t.Fatalf("A -> B should pass at 2%% tolerance: %v", tolerant.Slice())
	}
	// Output stays minimal: no superset of an emitted LHS appears.
	for _, f := range tolerant.Slice() {
		for _, g := range tolerant.Slice() {
			if f != g && f.RHS == g.RHS && f.LHS.IsProperSubsetOf(g.LHS) {
				t.Errorf("non-minimal output: %v ⊂ %v", f, g)
			}
		}
	}
}

func TestDiscoverApproxMonotoneInError(t *testing.T) {
	// Every dependency accepted at a threshold is accepted at a larger
	// one — by a generalization if not verbatim.
	r := rand.New(rand.NewSource(157))
	rel := randomRelation(r, 40, 4, 3)
	enc := preprocess.Encode(rel)
	lo := discoverApprox(t, enc, 0.05)
	hi := discoverApprox(t, enc, 0.2)
	lo.ForEach(func(f fdset.FD) {
		ok := false
		hi.ForEach(func(g fdset.FD) {
			if g.Generalizes(f) {
				ok = true
			}
		})
		if !ok {
			t.Errorf("FD %v accepted at 0.05 but not generalized at 0.2", f)
		}
	})
}

func TestDiscoverApproxDegenerate(t *testing.T) {
	enc := preprocess.Encode(dataset.MustNew("none", nil, nil))
	if got := discoverApprox(t, enc, 0.1); got.Len() != 0 {
		t.Errorf("no-column result: %v", got.Slice())
	}
}
