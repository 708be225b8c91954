package aidfd

import (
	"context"
	"math/rand"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/metrics"
	"eulerfd/internal/naive"
	"eulerfd/internal/preprocess"
)

func patient() *dataset.Relation {
	return dataset.MustNew("patient",
		[]string{"Name", "Age", "BloodPressure", "Gender", "Medicine"},
		[][]string{
			{"Kelly", "60", "High", "Female", "drugA"},
			{"Jack", "32", "Low", "Male", "drugC"},
			{"Nancy", "28", "Normal", "Female", "drugX"},
			{"Lily", "49", "Low", "Female", "drugY"},
			{"Ophelia", "32", "Normal", "Female", "drugX"},
			{"Anna", "49", "Normal", "Female", "drugX"},
			{"Esther", "32", "Low", "Female", "drugC"},
			{"Richard", "41", "Normal", "Male", "drugY"},
			{"Taylor", "25", "Low", "Gender-queer", "drugC"},
		})
}

// exhaustive drives AID-FD to full window coverage so its output becomes
// exact and comparable to the oracle. A negative threshold means no
// zero-growth round can terminate sampling early.
func exhaustive() Options { return Options{ThNcover: -1} }

func TestAIDFDPatientExhaustiveExact(t *testing.T) {
	got, stats, err := discover(patient(), exhaustive())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(patient())
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
	if stats.Rounds < 2 || stats.PairsCompared == 0 {
		t.Errorf("stats: %+v", stats)
	}
}

func TestAIDFDExhaustiveMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for iter := 0; iter < 50; iter++ {
		attrs := []string{"A", "B", "C", "D"}
		rows := make([][]string, 2+r.Intn(30))
		for i := range rows {
			row := make([]string, 4)
			for j := range row {
				row[j] = string(rune('a' + r.Intn(3)))
			}
			rows[i] = row
		}
		rel := dataset.MustNew("rand", attrs, rows)
		got, _, err := discover(rel, exhaustive())
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Discover(rel)
		if !got.Equal(want) {
			t.Fatalf("iter %d: got %v want %v", iter, got.Slice(), want.Slice())
		}
	}
}

func TestAIDFDDefaultInvariants(t *testing.T) {
	// With the default threshold, output must be a non-trivial antichain
	// and every true FD must have a generalization in the output.
	r := rand.New(rand.NewSource(47))
	for iter := 0; iter < 20; iter++ {
		attrs := []string{"A", "B", "C", "D", "E"}
		rows := make([][]string, 10+r.Intn(60))
		for i := range rows {
			row := make([]string, 5)
			for j := range row {
				row[j] = string(rune('a' + r.Intn(4)))
			}
			rows[i] = row
		}
		rel := dataset.MustNew("rand", attrs, rows)
		got, _, err := discover(rel, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got.ForEach(func(f fdset.FD) {
			if f.IsTrivial() {
				t.Fatalf("trivial FD %v", f)
			}
		})
		truth := naive.Discover(rel)
		truth.ForEach(func(tf fdset.FD) {
			found := false
			got.ForEach(func(gf fdset.FD) {
				if gf.Generalizes(tf) {
					found = true
				}
			})
			if !found {
				t.Fatalf("true FD %v not generalized by output", tf)
			}
		})
	}
}

func TestAIDFDMaxRounds(t *testing.T) {
	opt := exhaustive()
	opt.MaxRounds = 1
	_, stats, err := discover(patient(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", stats.Rounds)
	}
}

// TestAIDFDNoClusterOneRound pins the window bound: AID-FD's starts at
// 2, so a relation without a cluster still runs its first round, over no
// pair.
func TestAIDFDNoClusterOneRound(t *testing.T) {
	rel := dataset.MustNew("alldiff", []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}})
	_, st, err := discover(rel, DefaultOptions())
	if err != nil || st.Rounds != 1 || st.PairsCompared != 0 || st.AgreeSets != 0 {
		t.Errorf("rounds=%d pairs=%d agree=%d err=%v, want 1 0 0 <nil>", st.Rounds, st.PairsCompared, st.AgreeSets, err)
	}
}

func TestAIDFDDegenerates(t *testing.T) {
	for _, rel := range []*dataset.Relation{
		dataset.MustNew("none", nil, nil),
		dataset.MustNew("empty", []string{"A"}, nil),
		dataset.MustNew("const", []string{"A", "B"}, [][]string{{"x", "y"}, {"x", "y"}}),
	} {
		got, _, err := discover(rel, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", rel.Name, err)
		}
		if rel.NumCols() == 0 {
			if got.Len() != 0 {
				t.Errorf("%s: %v", rel.Name, got.Slice())
			}
			continue
		}
		want := naive.Discover(rel)
		if r := metrics.Evaluate(got, want); r.F1 != 1 {
			t.Errorf("%s: F1 = %v (got %v, want %v)", rel.Name, r.F1, got.Slice(), want.Slice())
		}
	}
}

// discover runs the registry's entry point on an unencoded relation.
func discover(rel *dataset.Relation, opt Options) (*fdset.Set, Stats, error) {
	return DiscoverEncodedContext(context.Background(), preprocess.Encode(rel), opt)
}
