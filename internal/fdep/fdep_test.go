package fdep

import (
	"context"
	"math/rand"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
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

func randomRelation(r *rand.Rand, rows, cols, domain int) *dataset.Relation {
	attrs := make([]string, cols)
	for i := range attrs {
		attrs[i] = string(rune('A' + i))
	}
	data := make([][]string, rows)
	for i := range data {
		row := make([]string, cols)
		for j := range row {
			row[j] = string(rune('a' + r.Intn(domain)))
		}
		data[i] = row
	}
	return dataset.MustNew("rand", attrs, data)
}

func TestFdepPatientExact(t *testing.T) {
	got, stats, err := discover(patient())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(patient())
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
	if stats.PairsCompared != 36 { // C(9,2)
		t.Errorf("PairsCompared = %d, want 36", stats.PairsCompared)
	}
}

func TestFdepMatchesOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for iter := 0; iter < 60; iter++ {
		rel := randomRelation(r, 2+r.Intn(30), 2+r.Intn(5), 1+r.Intn(4))
		got, _, err := discover(rel)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Discover(rel)
		if !got.Equal(want) {
			t.Fatalf("iter %d:\ngot %v\nwant %v", iter, got.Slice(), want.Slice())
		}
	}
}

func TestFdepDegenerates(t *testing.T) {
	cases := []*dataset.Relation{
		dataset.MustNew("empty", []string{"A", "B"}, nil),
		dataset.MustNew("one", []string{"A"}, [][]string{{"x"}}),
		dataset.MustNew("none", nil, nil),
		dataset.MustNew("alldiff", []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}}),
	}
	for _, rel := range cases {
		got, _, err := discover(rel)
		if err != nil {
			t.Fatal(err)
		}
		if rel.NumCols() == 0 {
			if got.Len() != 0 {
				t.Errorf("%s: %v", rel.Name, got.Slice())
			}
			continue
		}
		want := naive.Discover(rel)
		if !got.Equal(want) {
			t.Errorf("%s: got %v, want %v", rel.Name, got.Slice(), want.Slice())
		}
	}
}

func TestFdepAllDifferPairHandled(t *testing.T) {
	// Two rows that disagree on every attribute witness ∅ ↛ A for all A;
	// Fdep sees such pairs directly (unlike cluster sampling).
	rel := dataset.MustNew("d", []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}})
	got, _, err := discover(rel)
	if err != nil {
		t.Fatal(err)
	}
	// Exact result: A → B and B → A (both columns are keys).
	want := fdset.NewSet(fdset.NewFD([]int{0}, 1), fdset.NewFD([]int{1}, 0))
	if !got.Equal(want) {
		t.Errorf("got %v", got.Slice())
	}
}

// discover runs the registry's entry point on an unencoded relation.
func discover(rel *dataset.Relation) (*fdset.Set, Stats, error) {
	return DiscoverEncodedContext(context.Background(), preprocess.Encode(rel))
}
