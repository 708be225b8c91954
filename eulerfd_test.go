package eulerfd

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/naive"
)

func patientRelation(t testing.TB) *Relation {
	t.Helper()
	rel, err := NewRelation("patient",
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
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestPublicAPIDiscoverAndEvaluate(t *testing.T) {
	rel := patientRelation(t)
	res, err := Discover(rel, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(rel)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(res.FDs, exact)
	if acc.F1 != 1 {
		t.Errorf("EulerFD on patient should be exact, F1 = %v", acc.F1)
	}
	if res.Stats.Rows != 9 || res.Stats.PairsCompared == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
}

func TestPublicAPICSVRoundTrip(t *testing.T) {
	src := "A,B\n1,x\n2,y\n1,x\n"
	rel, err := ReadCSV("t", strings.NewReader(src), DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Discover(rel, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A ↔ B hold in both directions.
	if !res.FDs.Contains(NewFD([]int{0}, 1)) || !res.FDs.Contains(NewFD([]int{1}, 0)) {
		t.Errorf("FDs = %v", res.FDs.Slice())
	}
}

func TestExactAlgorithmsAgree(t *testing.T) {
	// Cross-check every registered exact algorithm against the
	// brute-force oracle on random relations: the strongest integration
	// test in the suite.
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 25; iter++ {
		rows := make([][]string, 5+r.Intn(40))
		cols := 2 + r.Intn(6)
		attrs := make([]string, cols)
		for i := range attrs {
			attrs[i] = string(rune('A' + i))
		}
		for i := range rows {
			row := make([]string, cols)
			for j := range row {
				row[j] = string(rune('a' + r.Intn(4)))
			}
			rows[i] = row
		}
		rel, err := NewRelation("rand", attrs, rows)
		if err != nil {
			t.Fatal(err)
		}
		or := naive.Discover(rel)
		for _, info := range Algorithms() {
			if !info.Exact {
				continue
			}
			got, err := ExactContext(context.Background(), rel, info.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(or) {
				t.Fatalf("iter %d: %s disagrees with oracle\ngot %v\nwant %v",
					iter, info.ID, got.Slice(), or.Slice())
			}
		}
	}
}

func TestApproxAlgorithmsOnRegistrySmall(t *testing.T) {
	// End-to-end on the small registry stand-ins: both approximate
	// algorithms must stay above an F1 floor, and EulerFD must be at
	// least as accurate as AID-FD in aggregate (the paper's headline).
	names := []string{"iris", "balance-scale", "bridges", "echocardiogram", "breast-cancer", "hepatitis"}
	var sumE, sumA float64
	for _, name := range names {
		d, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rel := d.Build()
		truth, err := Exact(rel)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Discover(rel, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		aid, err := DiscoverWith(context.Background(), AlgoAIDFD, rel)
		if err != nil {
			t.Fatal(err)
		}
		e := Evaluate(res.FDs, truth).F1
		a := Evaluate(aid, truth).F1
		if e < 0.85 {
			t.Errorf("%s: EulerFD F1 = %.3f below floor", name, e)
		}
		sumE += e
		sumA += a
	}
	if sumE < sumA {
		t.Errorf("EulerFD aggregate F1 %.3f below AID-FD %.3f", sumE, sumA)
	}
}

func TestDependentsOf(t *testing.T) {
	fds := fdset.NewSet(
		NewFD([]int{0}, 2),
		NewFD([]int{1, 3}, 2),
		NewFD([]int{0}, 1),
	)
	got := DependentsOf(fds, 2)
	if len(got) != 2 {
		t.Fatalf("DependentsOf = %v", got)
	}
	for _, lhs := range got {
		if lhs != NewAttrSet(0) && lhs != NewAttrSet(1, 3) {
			t.Errorf("unexpected determinant %v", lhs)
		}
	}
	if len(DependentsOf(fds, 9)) != 0 {
		t.Error("unknown RHS should have no determinants")
	}
}

func TestDocs(t *testing.T) {
	fds := fdset.NewSet(NewFD([]int{0, 2}, 1), NewFD(nil, 9))
	docs := Docs(fds, []string{"A", "B", "C"})
	if len(docs) != 2 {
		t.Fatalf("docs = %v", docs)
	}
	// Deterministic order: RHS 1 before RHS 9.
	if docs[0].RHS != "B" || len(docs[0].LHS) != 2 || docs[0].LHS[0] != "A" || docs[0].LHS[1] != "C" {
		t.Errorf("doc[0] = %+v", docs[0])
	}
	if docs[1].RHS != "#9" || len(docs[1].LHS) != 0 {
		t.Errorf("doc[1] = %+v", docs[1])
	}
}

func TestInferenceHelpers(t *testing.T) {
	fds := fdset.NewSet(NewFD([]int{0}, 1), NewFD([]int{1}, 2))
	if got := Closure(fds, NewAttrSet(0), 3); got != NewAttrSet(0, 1, 2) {
		t.Errorf("Closure = %v", got)
	}
	if !Implies(fds, NewAttrSet(0), 2, 3) || !IsSuperkey(fds, NewAttrSet(0), 3) {
		t.Error("Implies/IsSuperkey wrong")
	}
	keys := CandidateKeys(fds, 3)
	if len(keys) != 1 || keys[0] != NewAttrSet(0) {
		t.Errorf("keys = %v", keys)
	}
	if _, ok := BCNFViolation(fds, 3); !ok {
		t.Error("B -> C should violate BCNF (B is not a key)")
	}
	v := NewFD([]int{1}, 2)
	l, r := Decompose(fds, v, 3)
	if l != NewAttrSet(1, 2) || r != NewAttrSet(0, 1) {
		t.Errorf("Decompose = %v, %v", l, r)
	}
}

func TestDiscoverTolerant(t *testing.T) {
	rows := make([][]string, 60)
	for i := range rows {
		a := i % 6
		rows[i] = []string{string(rune('a' + a)), string(rune('A' + a)), string(rune('0' + i%10))}
	}
	rows[3][1] = "Z" // one dirty row breaks A -> B exactly
	rel, err := NewRelation("dirty", []string{"A", "B", "C"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	// Threshold mode under g3 is error-tolerant discovery: a dependency
	// passes when removing at most an Epsilon fraction of rows makes it
	// hold.
	tolerant := func(rel *Relation, eps float64) (*Set, error) {
		opt := DefaultOptions()
		opt.Epsilon = eps
		res, err := DiscoverApprox(rel, MeasureG3, opt)
		if err != nil {
			return nil, err
		}
		fds := fdset.NewSet()
		for _, sf := range res.FDs {
			fds.Add(sf.FD)
		}
		return fds, nil
	}
	strict, err := tolerant(rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	if strict.Contains(NewFD([]int{0}, 1)) {
		t.Error("dirty FD passed at zero tolerance")
	}
	loose, err := tolerant(rel, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !loose.Contains(NewFD([]int{0}, 1)) {
		t.Errorf("A -> B should pass at 5%% tolerance: %v", loose.Slice())
	}
	bad := &Relation{Attrs: []string{"A"}, Rows: [][]string{{"1", "2"}}}
	if _, err := tolerant(bad, 0); err == nil {
		t.Error("malformed relation accepted")
	}
}

func TestIncrementalPublicAPI(t *testing.T) {
	rel := patientRelation(t)
	inc, err := NewIncremental("patient", rel.Attrs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(rel.Rows[:5]); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(rel.Rows[5:]); err != nil {
		t.Fatal(err)
	}
	exact, err := Exact(rel)
	if err != nil {
		t.Fatal(err)
	}
	acc := Evaluate(inc.FDs(), exact)
	if acc.F1 < 0.99 {
		t.Errorf("incremental F1 = %v", acc.F1)
	}
}
