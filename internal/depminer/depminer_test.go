package depminer

import (
	"context"
	"math/rand"
	"slices"
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

func TestDepMinerPatientExact(t *testing.T) {
	got, stats, err := discover(patient())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(patient())
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
	if stats.AgreeSets == 0 || stats.MaxSets == 0 || stats.Levels == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestDepMinerMatchesOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(103))
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

func TestDepMinerDegenerates(t *testing.T) {
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

func TestTransversalsLevelwise(t *testing.T) {
	// Edges {0,1} and {1,2}: minimal transversals are {1} and {0,2}.
	var got []fdset.AttrSet
	transversalsLevelwise(4, 3, []fdset.AttrSet{
		fdset.NewAttrSet(0, 1), fdset.NewAttrSet(1, 2),
	}, func(s fdset.AttrSet) { got = append(got, s) })
	want := map[fdset.AttrSet]bool{
		fdset.NewAttrSet(1):    true,
		fdset.NewAttrSet(0, 2): true,
	}
	if len(got) != len(want) {
		t.Fatalf("transversals = %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected transversal %v", s)
		}
	}
	// No edges: the empty transversal.
	got = nil
	transversalsLevelwise(3, 0, nil, func(s fdset.AttrSet) { got = append(got, s) })
	if len(got) != 1 || !got[0].IsEmpty() {
		t.Errorf("no-edge transversals = %v", got)
	}
}

func TestMaximalAgreeSetsWithout(t *testing.T) {
	agrees := []fdset.AttrSet{
		fdset.NewAttrSet(0, 1),
		fdset.NewAttrSet(0),       // subsumed by {0,1}
		fdset.NewAttrSet(0, 1, 2), // contains rhs=2, filtered out
		fdset.NewAttrSet(3),
	}
	got := cover.NCoverOf(4, nil, agrees).Maximal(2, agrees)
	if want := []fdset.AttrSet{agrees[0], agrees[3]}; !slices.Equal(got, want) {
		t.Fatalf("maximal sets = %v, want %v", got, want)
	}
}

// discover runs the registry's entry point on an unencoded relation.
func discover(rel *dataset.Relation) (*fdset.Set, Stats, error) {
	return DiscoverEncodedContext(context.Background(), preprocess.Encode(rel))
}
