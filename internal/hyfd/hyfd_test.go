package hyfd

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

func TestHyFDPatientExact(t *testing.T) {
	got, stats, err := discover(patient(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(patient())
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
	if stats.SamplingRounds == 0 || stats.Validations == 0 {
		t.Errorf("both phases must run: %+v", stats)
	}
}

func TestHyFDMatchesOracleProperty(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for iter := 0; iter < 80; iter++ {
		rel := randomRelation(r, 2+r.Intn(40), 2+r.Intn(6), 1+r.Intn(4))
		got, _, err := discover(rel, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want := naive.Discover(rel)
		if !got.Equal(want) {
			t.Fatalf("iter %d rows=%v:\ngot %v\nwant %v", iter, rel.Rows, got.Slice(), want.Slice())
		}
	}
}

func TestHyFDAggressiveSwitching(t *testing.T) {
	// Very high efficiency threshold ends sampling immediately; the
	// validation phase must carry the run to an exact result anyway.
	opt := Options{EfficiencyThreshold: 1e9, InvalidSwitchRatio: 0.5}
	r := rand.New(rand.NewSource(67))
	for iter := 0; iter < 30; iter++ {
		rel := randomRelation(r, 5+r.Intn(30), 2+r.Intn(5), 1+r.Intn(3))
		got, _, err := discover(rel, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(naive.Discover(rel)) {
			t.Fatalf("iter %d diverged under aggressive switching", iter)
		}
	}
}

func TestHyFDDegenerates(t *testing.T) {
	for _, rel := range []*dataset.Relation{
		dataset.MustNew("none", nil, nil),
		dataset.MustNew("empty", []string{"A", "B"}, nil),
		dataset.MustNew("const", []string{"A", "B"}, [][]string{{"x", "y"}, {"x", "y"}}),
		dataset.MustNew("alldiff", []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}}),
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
		if !got.Equal(naive.Discover(rel)) {
			t.Errorf("%s mismatch", rel.Name)
		}
	}
}

// TestHyFDNoClusterNoRound pins the window bound: HyFD samples windows
// up to its largest cluster, so a relation without one runs no sampling
// round, and the violating pairs validation finds never count as
// sampled agree sets.
func TestHyFDNoClusterNoRound(t *testing.T) {
	rel := dataset.MustNew("alldiff", []string{"A", "B"}, [][]string{{"1", "2"}, {"3", "4"}})
	_, st, err := discover(rel, DefaultOptions())
	if err != nil || st.SamplingRounds != 0 || st.PairsCompared != 0 || st.AgreeSets != 0 {
		t.Errorf("rounds=%d pairs=%d agree=%d err=%v, want 0 0 0 <nil>", st.SamplingRounds, st.PairsCompared, st.AgreeSets, err)
	}
}

func TestOptionsWithDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.EfficiencyThreshold != 0.01 || o.InvalidSwitchRatio != 0.2 {
		t.Errorf("defaults wrong: %+v", o)
	}
}

// discover runs the registry's entry point on an unencoded relation.
func discover(rel *dataset.Relation, opt Options) (*fdset.Set, Stats, error) {
	return DiscoverEncodedContext(context.Background(), preprocess.Encode(rel), opt)
}
