package preprocess

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
)

// patient is Table I of the paper.
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

func sortedClusters(p StrippedPartition) [][]int32 {
	out := make([][]int32, len(p.Clusters))
	for i, c := range p.Clusters {
		cc := append([]int32(nil), c...)
		sort.Slice(cc, func(a, b int) bool { return cc[a] < cc[b] })
		out[i] = cc
	}
	sort.Slice(out, func(a, b int) bool {
		if len(out[a]) == 0 || len(out[b]) == 0 {
			return len(out[a]) < len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

func TestEncodeLabelsMatchTableII(t *testing.T) {
	e := Encode(patient())
	if e.NumRows != 9 || len(e.Attrs) != 5 {
		t.Fatalf("shape wrong")
	}
	// Table II of the paper, shifted to 0-based labels.
	want := [][]int32{
		{0, 0, 0, 0, 0},
		{1, 1, 1, 1, 1},
		{2, 2, 2, 0, 2},
		{3, 3, 1, 0, 3},
		{4, 1, 2, 0, 2},
		{5, 3, 2, 0, 2},
		{6, 1, 1, 0, 1},
		{7, 4, 2, 1, 3},
		{8, 5, 1, 2, 1},
	}
	for i, row := range want {
		for c, l := range row {
			if got := e.Lane(c).At(int32(i)); got != l {
				t.Errorf("label (%d,%d) = %d, want %d", i, c, got, l)
			}
		}
	}
	if e.NumLabels[0] != 9 || e.NumLabels[3] != 3 {
		t.Errorf("NumLabels = %v", e.NumLabels)
	}
}

func TestStrippedPartitionsMatchExample6(t *testing.T) {
	e := Encode(patient())
	// Age (attr 1): {{t2,t5,t7},{t4,t6}} → 0-based rows {1,4,6},{3,5}.
	age := sortedClusters(e.Partitions[1])
	wantAge := [][]int32{{1, 4, 6}, {3, 5}}
	if !reflect.DeepEqual(age, wantAge) {
		t.Errorf("age partition = %v, want %v", age, wantAge)
	}
	// Gender (attr 3): {{t1,t3..t7},{t2,t8}} → {0,2,3,4,5,6},{1,7}.
	g := sortedClusters(e.Partitions[3])
	wantG := [][]int32{{0, 2, 3, 4, 5, 6}, {1, 7}}
	if !reflect.DeepEqual(g, wantG) {
		t.Errorf("gender partition = %v, want %v", g, wantG)
	}
	// Name (attr 0) is a key: no clusters survive stripping.
	if e.Partitions[0].NumClusters() != 0 {
		t.Errorf("name partition should be empty, got %v", e.Partitions[0])
	}
}

func TestPartitionStats(t *testing.T) {
	e := Encode(patient())
	p := e.Partitions[3]
	if p.Sum() != 8 || p.NumClusters() != 2 || p.Error() != 6 {
		t.Errorf("gender stats: sum=%d n=%d err=%d", p.Sum(), p.NumClusters(), p.Error())
	}
}

func TestAgreeSetExamples(t *testing.T) {
	e := Encode(patient())
	// t1,t3 (rows 0,2): agree only on Gender (Fig. 3 example yields
	// non-FDs G↛N, G↛A, G↛B, G↛M).
	agree := e.AgreeSet(0, 2)
	if agree != fdset.NewAttrSet(3) {
		t.Errorf("agree(t1,t3) = %v", agree)
	}
	if d := fdset.FullSet(5).Diff(agree); d != fdset.NewAttrSet(0, 1, 2, 4) {
		t.Errorf("disagree(t1,t3) = %v", d)
	}
	// t2,t7 (rows 1,6): agree on Age, BP, Medicine (A, B, M).
	if got := e.AgreeSet(1, 6); got != fdset.NewAttrSet(1, 2, 4) {
		t.Errorf("agree(t2,t7) = %v", got)
	}
}

func TestHoldsOnPaperExamples(t *testing.T) {
	e := Encode(patient())
	n, a, b, g, m := 0, 1, 2, 3, 4
	cases := []struct {
		lhs  []int
		rhs  int
		want bool
	}{
		{[]int{a, b}, m, true},  // AB → M (Example 1)
		{[]int{n}, b, true},     // N → B (Name is a key)
		{[]int{g}, m, false},    // G ↛ M (Example 1)
		{[]int{n, g}, m, true},  // NG → M specializes N → M
		{[]int{m}, a, false},    // M ↛ A (Example 4)
		{[]int{b, g}, n, false}, // BG ↛ N (Example 4)
	}
	for _, c := range cases {
		got := e.Holds(fdset.NewAttrSet(c.lhs...), c.rhs)
		if got != c.want {
			t.Errorf("Holds(%v -> %d) = %v, want %v", c.lhs, c.rhs, got, c.want)
		}
	}
}

func TestViolationWitness(t *testing.T) {
	e := Encode(patient())
	i, j, ok := e.ViolatingPair(e.PartitionOf(fdset.NewAttrSet(3)), 4) // G ↛ M
	if !ok {
		t.Fatal("expected violation for G -> M")
	}
	if e.Lane(3).At(i) != e.Lane(3).At(j) || e.Lane(4).At(i) == e.Lane(4).At(j) {
		t.Errorf("witness (%d,%d) does not violate", i, j)
	}
	if _, _, ok := e.ViolatingPair(e.PartitionOf(fdset.NewAttrSet(0)), 1); ok {
		t.Error("valid FD reported violation")
	}
}

func TestPartitionOfEmptySet(t *testing.T) {
	e := Encode(patient())
	p := e.PartitionOf(fdset.EmptySet())
	if p.NumClusters() != 1 || p.Sum() != 9 {
		t.Errorf("empty-set partition = %v", p)
	}
	tiny := Encode(dataset.MustNew("one", []string{"A"}, [][]string{{"x"}}))
	if tiny.PartitionOf(fdset.EmptySet()).NumClusters() != 0 {
		t.Error("single-row empty-set partition should be stripped")
	}
}

// naivePartition groups rows by their tuple of labels over x.
func naivePartition(e *Encoded, x fdset.AttrSet) [][]int32 {
	groups := map[string][]int32{}
	for i := 0; i < e.NumRows; i++ {
		key := ""
		x.ForEach(func(a int) bool {
			key += string(rune(e.Lane(a).At(int32(i)))) + "|"
			return true
		})
		groups[key] = append(groups[key], int32(i))
	}
	var out [][]int32
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, g)
		}
	}
	return sortedClusters(StrippedPartition{Clusters: out})
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

func TestPartitionOfAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 60; iter++ {
		rel := randomRelation(r, 2+r.Intn(40), 1+r.Intn(5), 1+r.Intn(4))
		e := Encode(rel)
		for trial := 0; trial < 5; trial++ {
			var x fdset.AttrSet
			for c := 0; c < rel.NumCols(); c++ {
				if r.Intn(2) == 0 {
					x.Add(c)
				}
			}
			got := sortedClusters(e.PartitionOf(x))
			want := naivePartition(e, x)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("PartitionOf(%v) = %v, want %v", x, got, want)
			}
		}
	}
}

func TestProductAgainstRefine(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 40; iter++ {
		rel := randomRelation(r, 2+r.Intn(40), 2+r.Intn(4), 1+r.Intn(3))
		e := Encode(rel)
		a := r.Intn(rel.NumCols())
		b := r.Intn(rel.NumCols())
		got := sortedClusters(Product(e.Partitions[a], e.Partitions[b], e.NumRows))
		want := sortedClusters(e.PartitionOf(fdset.NewAttrSet(a, b)))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Product(%d,%d) = %v, want %v", a, b, got, want)
		}
	}
}

func TestAllClusters(t *testing.T) {
	e := Encode(patient())
	clusters := e.AllClusters()
	// Name contributes 0 clusters; Age 2; BloodPressure 2 (Low:4? let's
	// just verify counts sum to total over partitions).
	want := 0
	for _, p := range e.Partitions {
		want += p.NumClusters()
	}
	if len(clusters) != want {
		t.Errorf("AllClusters = %d, want %d", len(clusters), want)
	}
	for _, c := range clusters {
		if len(c.Rows) < 2 {
			t.Errorf("cluster with <2 rows: %+v", c)
		}
	}
}

func TestHoldsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		rel := randomRelation(r, 2+r.Intn(25), 1+r.Intn(5), 1+r.Intn(3))
		e := Encode(rel)
		for trial := 0; trial < 8; trial++ {
			var x fdset.AttrSet
			for c := 0; c < rel.NumCols(); c++ {
				if r.Intn(3) == 0 {
					x.Add(c)
				}
			}
			a := r.Intn(rel.NumCols())
			want := true
		outer:
			for i := 0; i < e.NumRows; i++ {
				for j := i + 1; j < e.NumRows; j++ {
					agree := e.AgreeSet(i, j)
					if x.IsSubsetOf(agree) && !agree.Has(a) {
						want = false
						break outer
					}
				}
			}
			if got := e.Holds(x, a); got != want {
				t.Fatalf("Holds(%v->%d) = %v, want %v", x, a, got, want)
			}
		}
	}
}
