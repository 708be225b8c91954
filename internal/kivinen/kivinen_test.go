package kivinen

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

func TestKivinenSampleSizeScalesWithParams(t *testing.T) {
	rows := make([][]string, 500)
	r := rand.New(rand.NewSource(1))
	for i := range rows {
		rows[i] = []string{string(rune('a' + r.Intn(5))), string(rune('a' + r.Intn(5)))}
	}
	rel := dataset.MustNew("t", []string{"A", "B"}, rows)
	_, loose, err := discover(rel, Options{Epsilon: 0.1, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := discover(rel, Options{Epsilon: 0.001, Delta: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if tight.SampleSize <= loose.SampleSize {
		t.Errorf("tighter parameters must sample more: %d vs %d", tight.SampleSize, loose.SampleSize)
	}
}

func TestKivinenInvariants(t *testing.T) {
	// Output must be a non-trivial antichain generalizing the truth,
	// regardless of the (random) sample.
	rel := patient()
	got, stats, err := discover(rel, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if stats.SampleSize == 0 || stats.PairsCompared == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
	got.ForEach(func(f fdset.FD) {
		if f.IsTrivial() {
			t.Errorf("trivial FD %v", f)
		}
	})
	truth := naive.Discover(rel)
	truth.ForEach(func(tf fdset.FD) {
		ok := false
		got.ForEach(func(gf fdset.FD) {
			if gf.Generalizes(tf) {
				ok = true
			}
		})
		if !ok {
			t.Errorf("true FD %v not generalized by output", tf)
		}
	})
}

func TestKivinenDeterministicPerSeed(t *testing.T) {
	rel := patient()
	a, _, err := discover(rel, Options{Epsilon: 0.05, Delta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := discover(rel, Options{Epsilon: 0.05, Delta: 0.05, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same seed produced different results")
	}
}

func TestKivinenMaxPairsCap(t *testing.T) {
	_, stats, err := discover(patient(), Options{Epsilon: 1e-9, Delta: 1e-9, MaxPairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SampleSize > 10 {
		t.Errorf("SampleSize = %d exceeds cap", stats.SampleSize)
	}
}

func TestKivinenFullSampleIsExact(t *testing.T) {
	// When the theoretical sample covers far more than every pair, the
	// uniform sampler almost surely sees every distinct agree set of this
	// tiny relation; combined with the ∅-seed the result is exact.
	got, _, err := discover(patient(), Options{Epsilon: 0.0001, Delta: 0.0001, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := naive.Discover(patient())
	if !got.Equal(want) {
		t.Fatalf("got %v\nwant %v", got.Slice(), want.Slice())
	}
}

func TestKivinenDegenerates(t *testing.T) {
	for _, rel := range []*dataset.Relation{
		dataset.MustNew("none", nil, nil),
		dataset.MustNew("empty", []string{"A"}, nil),
	} {
		got, _, err := discover(rel, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", rel.Name, err)
		}
		if rel.NumCols() == 0 && got.Len() != 0 {
			t.Errorf("%s: %v", rel.Name, got.Slice())
		}
	}
}

// discover runs the registry's entry point on an unencoded relation.
func discover(rel *dataset.Relation, opt Options) (*fdset.Set, Stats, error) {
	return DiscoverEncodedContext(context.Background(), preprocess.Encode(rel), opt)
}
