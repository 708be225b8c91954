package infer

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"eulerfd/internal/algo"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/naive"
	"eulerfd/internal/preprocess"
)

func fd(lhs []int, rhs int) fdset.FD { return fdset.NewFD(lhs, rhs) }

func TestClosureTextbook(t *testing.T) {
	// R(A,B,C,D) with A→B, B→C: {A}+ = {A,B,C}, {D}+ = {D}.
	fds := fdset.NewSet(fd([]int{0}, 1), fd([]int{1}, 2))
	if got := Closure(fds, fdset.NewAttrSet(0), 4); got != fdset.NewAttrSet(0, 1, 2) {
		t.Errorf("A+ = %v", got)
	}
	if got := Closure(fds, fdset.NewAttrSet(3), 4); got != fdset.NewAttrSet(3) {
		t.Errorf("D+ = %v", got)
	}
	// Chained inference: A→B, B→C, C→D.
	fds.Add(fd([]int{2}, 3))
	if got := Closure(fds, fdset.NewAttrSet(0), 4); got != fdset.FullSet(4) {
		t.Errorf("A+ with chain = %v", got)
	}
}

func TestImplies(t *testing.T) {
	fds := fdset.NewSet(fd([]int{0}, 1), fd([]int{1}, 2))
	if !Implies(fds, fdset.NewAttrSet(0), 2, 3) {
		t.Error("A → C should follow by transitivity")
	}
	if Implies(fds, fdset.NewAttrSet(1), 0, 3) {
		t.Error("B → A should not follow")
	}
	if !Implies(fds, fdset.NewAttrSet(1), 1, 3) {
		t.Error("trivial dependency should always hold")
	}
}

func TestIsSuperkeyAndCandidateKeys(t *testing.T) {
	// R(A,B,C): A→B, B→C ⟹ the only candidate key is {A}.
	fds := fdset.NewSet(fd([]int{0}, 1), fd([]int{1}, 2))
	if !IsSuperkey(fds, fdset.NewAttrSet(0), 3) || IsSuperkey(fds, fdset.NewAttrSet(1), 3) {
		t.Error("superkey judgments wrong")
	}
	keys := CandidateKeys(fds, 3)
	if len(keys) != 1 || keys[0] != fdset.NewAttrSet(0) {
		t.Errorf("keys = %v", keys)
	}
	// R(A,B) with A→B and B→A: both singletons are keys.
	cyc := fdset.NewSet(fd([]int{0}, 1), fd([]int{1}, 0))
	keys = CandidateKeys(cyc, 2)
	want := []fdset.AttrSet{fdset.NewAttrSet(0), fdset.NewAttrSet(1)}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("cyclic keys = %v", keys)
	}
	// No FDs: the full set is the only key.
	keys = CandidateKeys(fdset.NewSet(), 3)
	if len(keys) != 1 || keys[0] != fdset.FullSet(3) {
		t.Errorf("no-FD keys = %v", keys)
	}
	if CandidateKeys(fdset.NewSet(), 0) != nil {
		t.Error("zero-column keys should be nil")
	}
}

func TestCandidateKeysTooWidePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	CandidateKeys(fdset.NewSet(), 25)
}

func TestBCNFViolationAndDecompose(t *testing.T) {
	// Orders(OrderID, CustomerID, CustomerName): OrderID key,
	// CustomerID → CustomerName violates BCNF.
	fds := fdset.NewSet(
		fd([]int{0}, 1), fd([]int{0}, 2),
		fd([]int{1}, 2),
	)
	v, ok := BCNFViolation(fds, 3)
	if !ok {
		t.Fatal("violation not found")
	}
	if v.LHS != fdset.NewAttrSet(1) || v.RHS != 2 {
		t.Fatalf("violation = %v", v)
	}
	left, right := Decompose(fds, v, 3)
	if left != fdset.NewAttrSet(1, 2) || right != fdset.NewAttrSet(0, 1) {
		t.Errorf("decomposition = %v, %v", left, right)
	}
	// A schema whose only FDs have key LHSs is in BCNF.
	bcnf := fdset.NewSet(fd([]int{0}, 1), fd([]int{0}, 2))
	if _, ok := BCNFViolation(bcnf, 3); ok {
		t.Error("BCNF schema reported a violation")
	}
}

// TestImpliesMatchesData: for FDs discovered from a relation, implication
// from the minimal FD set must coincide with validity on the data.
func TestImpliesMatchesData(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for iter := 0; iter < 20; iter++ {
		cols := 2 + r.Intn(4)
		attrs := make([]string, cols)
		for i := range attrs {
			attrs[i] = string(rune('A' + i))
		}
		rows := make([][]string, 5+r.Intn(25))
		for i := range rows {
			row := make([]string, cols)
			for j := range row {
				row[j] = string(rune('a' + r.Intn(3)))
			}
			rows[i] = row
		}
		rel := dataset.MustNew("rand", attrs, rows)
		enc := preprocess.Encode(rel)
		fds, _, err := algo.RunEncoded(context.Background(), algo.HyFD, enc, algo.DefaultTuning())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			var x fdset.AttrSet
			for c := 0; c < cols; c++ {
				if r.Intn(2) == 0 {
					x.Add(c)
				}
			}
			a := r.Intn(cols)
			if x.Has(a) {
				continue
			}
			implied := Implies(fds, x, a, cols)
			holds := naive.Holds(enc, x, a)
			if implied != holds {
				t.Fatalf("iter %d: Implies(%v→%d)=%v but data says %v", iter, x, a, implied, holds)
			}
		}
	}
}

func TestClosureIgnoresOutOfRangeRHS(t *testing.T) {
	fds := fdset.NewSet(fd([]int{0}, 7)) // RHS outside the 3-col schema
	if got := Closure(fds, fdset.NewAttrSet(0), 3); got != fdset.NewAttrSet(0) {
		t.Errorf("closure = %v", got)
	}
}

func TestDecomposeCoversSchema(t *testing.T) {
	fds := fdset.NewSet(fd([]int{1}, 2))
	l, r := Decompose(fds, fd([]int{1}, 2), 4)
	if l.Union(r) != fdset.FullSet(4) {
		t.Errorf("fragments %v, %v do not cover the schema", l, r)
	}
	if !l.Intersect(r).IsSupersetOf(fdset.NewAttrSet(1)) {
		t.Errorf("fragments do not share the violating LHS")
	}
}
