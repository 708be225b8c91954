package preprocess

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"eulerfd/internal/fdset"
)

// naiveMeasureCounts recomputes MeasureCounts straight from the labels by
// scanning all O(n²) row pairs (g1) and grouping rows by their full X
// projection (g3, pdep) — no partitions involved.
func naiveMeasureCounts(e *Encoded, x fdset.AttrSet, a int) MeasureCounts {
	sameOn := func(u, v int, s fdset.AttrSet) bool {
		same := true
		s.ForEach(func(attr int) bool {
			if e.Lane(attr).At(int32(u)) != e.Lane(attr).At(int32(v)) {
				same = false
				return false
			}
			return true
		})
		return same
	}
	var mc MeasureCounts
	// g1: ordered violating pairs.
	for u := 0; u < e.NumRows; u++ {
		for v := 0; v < e.NumRows; v++ {
			if u != v && sameOn(u, v, x) && e.Lane(a).At(int32(u)) != e.Lane(a).At(int32(v)) {
				mc.ViolatingPairs++
			}
		}
	}
	// Group rows by X projection, quadratically.
	assigned := make([]bool, e.NumRows)
	for u := 0; u < e.NumRows; u++ {
		if assigned[u] {
			continue
		}
		group := []int{u}
		for v := u + 1; v < e.NumRows; v++ {
			if !assigned[v] && sameOn(u, v, x) {
				group = append(group, v)
				assigned[v] = true
			}
		}
		if len(group) == 1 {
			continue // stripped
		}
		mc.Covered += len(group)
		counts := make(map[int32]int)
		for _, r := range group {
			counts[e.Lane(a).At(int32(r))]++
		}
		best := 0
		var sqSum int64
		for _, c := range counts {
			if c > best {
				best = c
			}
			sqSum += int64(c) * int64(c)
		}
		mc.ViolatingRows += len(group) - best
		mc.GroupSqSum += float64(sqSum) / float64(len(group))
	}
	return mc
}

func TestCountViolationsMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		rel := randomRelation(r, 40+r.Intn(40), 5, 2+r.Intn(3))
		enc := Encode(rel)
		for sub := 0; sub < 8; sub++ {
			var x fdset.AttrSet
			for a := 0; a < 5; a++ {
				if r.Intn(2) == 0 {
					x.Add(a)
				}
			}
			if x.Count() == 0 {
				x.Add(0)
			}
			a := r.Intn(5)
			if x.Has(a) {
				// Keep the RHS outside X; dropping it from X (rather than
				// probing for a free attribute) also works when the random
				// draw selected every column.
				x.Remove(a)
				if x.Count() == 0 {
					x.Add((a + 1) % 5)
				}
			}
			part := enc.PartitionOf(x)
			got := enc.CountViolations(part, a)
			want := naiveMeasureCounts(enc, x, a)
			if got.ViolatingRows != want.ViolatingRows ||
				got.ViolatingPairs != want.ViolatingPairs ||
				got.Covered != want.Covered ||
				math.Abs(got.GroupSqSum-want.GroupSqSum) > 1e-9 {
				t.Fatalf("CountViolations(%v, %d) = %+v, naive = %+v", x, a, got, want)
			}
			// afd.Scorer.Rank's redundancy bound: a cluster explains at
			// most |c| − 1 cells, so red(X → a) ≤ e(π_X).
			if red, e := got.RedundantRows(), part.Error(); red > e {
				t.Fatalf("RedundantRows(%v, %d) = %d above the partition error %d", x, a, red, e)
			}
		}
	}
}

func TestCountViolationsExactFD(t *testing.T) {
	enc := Encode(patient())
	// AB → M holds exactly (Example 1 of the paper).
	x := fdset.NewAttrSet(1, 2)
	mc := enc.CountViolations(enc.PartitionOf(x), 4)
	if mc.ViolatingRows != 0 || mc.ViolatingPairs != 0 {
		t.Fatalf("exact FD reported violations: %+v", mc)
	}
	if got := mc.PdepFrom(enc.NumRows); got != 1 {
		t.Fatalf("pdep of an exact FD = %v, want 1", got)
	}
	// G → M is violated (rows 1 and 5 share Gender but differ on Medicine).
	mc = enc.CountViolations(enc.Partitions[3], 4)
	if mc.ViolatingRows == 0 || mc.ViolatingPairs == 0 {
		t.Fatalf("violated FD reported no violations: %+v", mc)
	}
	if got := mc.PdepFrom(enc.NumRows); got >= 1 || got <= 0 {
		t.Fatalf("pdep of a violated FD = %v, want in (0,1)", got)
	}
}

func TestPdepFromEmptyRelation(t *testing.T) {
	if got := (MeasureCounts{}).PdepFrom(0); got != 1 {
		t.Fatalf("PdepFrom(0) = %v, want 1", got)
	}
}

// TestPartitionCacheConcurrent hammers one cache from many goroutines;
// run with -race to catch unguarded access. Every result is checked
// against a from-scratch PartitionOf.
func TestPartitionCacheConcurrent(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(99)), 80, 6, 3)
	enc := Encode(rel)
	c := NewPartitionCache(enc, 8) // small bound to force eviction churn
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				var x fdset.AttrSet
				for a := 0; a < 6; a++ {
					if r.Intn(2) == 0 {
						x.Add(a)
					}
				}
				got := sortedClusters(c.Get(x))
				want := sortedClusters(enc.PartitionOf(x))
				if !reflect.DeepEqual(got, want) {
					select {
					case errs <- x.String():
					default:
					}
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	if x, ok := <-errs; ok {
		t.Fatalf("concurrent Get(%s) disagreed with PartitionOf", x)
	}
}
