package dfd

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

func TestDfdPatientExact(t *testing.T) {
	got, stats, err := discover(patient())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(patient())
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
	if stats.Validations == 0 || stats.WalkSteps == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestDfdMatchesOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(139))
	for iter := 0; iter < 60; iter++ {
		rel := randomRelation(r, 2+r.Intn(30), 2+r.Intn(6), 1+r.Intn(4))
		got, _, err := discover(rel)
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Discover(rel)
		if !got.Equal(want) {
			t.Fatalf("iter %d rows=%v:\ngot %v\nwant %v", iter, rel.Rows, got.Slice(), want.Slice())
		}
	}
}

func TestDfdDeterministic(t *testing.T) {
	a, _, err := discover(patient())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := discover(patient())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("Dfd runs diverge despite fixed per-RHS seeds")
	}
}

func TestDfdDegenerates(t *testing.T) {
	for _, rel := range []*dataset.Relation{
		dataset.MustNew("none", nil, nil),
		dataset.MustNew("empty", []string{"A", "B"}, nil),
		dataset.MustNew("one-col", []string{"A"}, [][]string{{"x"}, {"y"}}),
		dataset.MustNew("const", []string{"A", "B"}, [][]string{{"x", "y"}, {"x", "y"}}),
		dataset.MustNew("alldiff", []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}}),
	} {
		got, _, err := discover(rel)
		if err != nil {
			t.Fatalf("%s: %v", rel.Name, err)
		}
		if rel.NumCols() == 0 {
			if got.Len() != 0 {
				t.Errorf("%s: %v", rel.Name, got.Slice())
			}
			continue
		}
		if !got.Equal(naive.Discover(rel)) {
			t.Errorf("%s mismatch", rel.Name)
		}
	}
}

// discover runs the registry's entry point on an unencoded relation.
func discover(rel *dataset.Relation) (*fdset.Set, Stats, error) {
	return DiscoverEncodedContext(context.Background(), preprocess.Encode(rel))
}
