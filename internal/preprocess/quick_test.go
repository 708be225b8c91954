package preprocess

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
)

// quickRel wraps a small random relation for testing/quick.
type quickRel struct{ R *dataset.Relation }

func (quickRel) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(quickRel{R: randomRelation(r, 2+r.Intn(25), 1+r.Intn(5), 1+r.Intn(4))})
}

func TestQuickPartitionInvariants(t *testing.T) {
	cfg := &quick.Config{MaxCount: 150}
	// Every cluster of every single-attribute stripped partition has ≥ 2
	// rows, all agreeing on the attribute, and distinct clusters disagree.
	if err := quick.Check(func(q quickRel) bool {
		enc := Encode(q.R)
		for a, p := range enc.Partitions {
			covered := map[int32]bool{}
			for _, cluster := range p.Clusters {
				if len(cluster) < 2 {
					return false
				}
				label := enc.Lane(a).At(cluster[0])
				for _, r := range cluster {
					if enc.Lane(a).At(r) != label || covered[r] {
						return false
					}
					covered[r] = true
				}
			}
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
	// Refinement error never increases: e(π_{X∪a}) ≤ e(π_X).
	if err := quick.Check(func(q quickRel, pick uint8) bool {
		enc := Encode(q.R)
		m := len(enc.Attrs)
		a := int(pick) % m
		b := (int(pick) / 7) % m
		px := enc.Partitions[a]
		pxy := enc.Refine(px, b)
		return pxy.Error() <= px.Error()
	}, cfg); err != nil {
		t.Error(err)
	}
	// Agree sets are symmetric and reflexive up to the diagonal.
	if err := quick.Check(func(q quickRel, i8, j8 uint8) bool {
		enc := Encode(q.R)
		if enc.NumRows == 0 {
			return true
		}
		i := int(i8) % enc.NumRows
		j := int(j8) % enc.NumRows
		agree := enc.AgreeSet(i, j)
		back := enc.AgreeSet(j, i)
		if agree != back {
			return false
		}
		if i == j && agree != fdset.FullSet(len(enc.Attrs)) {
			return false
		}
		return true
	}, cfg); err != nil {
		t.Error(err)
	}
}
