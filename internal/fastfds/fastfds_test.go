package fastfds

import (
	"context"
	"math/rand"
	"testing"

	"eulerfd/internal/cover"
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

func TestFastFDsPatientExact(t *testing.T) {
	got, stats, err := discover(patient())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(patient())
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
	if stats.DiffSets == 0 || stats.SearchNodes == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestFastFDsMatchesOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	for iter := 0; iter < 60; iter++ {
		rel := randomRelation(r, 2+r.Intn(30), 2+r.Intn(5), 1+r.Intn(4))
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

func TestFastFDsAgreesWithDeeperRelations(t *testing.T) {
	// Wider relations exercise the DFS ordering and exclusion logic.
	r := rand.New(rand.NewSource(109))
	for iter := 0; iter < 15; iter++ {
		rel := randomRelation(r, 10+r.Intn(30), 6+r.Intn(3), 2+r.Intn(3))
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

func TestFastFDsDegenerates(t *testing.T) {
	for _, rel := range []*dataset.Relation{
		dataset.MustNew("none", nil, nil),
		dataset.MustNew("empty", []string{"A", "B"}, nil),
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

func TestDifferenceSetsMinimality(t *testing.T) {
	// Agree sets {0,1} and {0} for rhs 2 over m=3: complements within
	// {0,1} are {} wait — complements of {0,1} is {}, meaning a violating
	// pair agrees on everything except rhs: no LHS can avoid it. Use
	// rhs=3, m=4: complement({0,1}) = {2}, complement({0}) = {1,2}; the
	// minimal difference set {2} subsumes {1,2}.
	agrees := []fdset.AttrSet{fdset.NewAttrSet(0, 1), fdset.NewAttrSet(0)}
	got := differenceSets(cover.NCoverOf(4, nil, agrees).Maximal(3, agrees), 4, 3)
	if len(got) != 1 || got[0] != fdset.NewAttrSet(2) {
		t.Errorf("difference sets = %v", got)
	}
}

// discover runs the registry's entry point on an unencoded relation.
func discover(rel *dataset.Relation) (*fdset.Set, Stats, error) {
	return DiscoverEncodedContext(context.Background(), preprocess.Encode(rel))
}
