package core

import (
	"fmt"
	"testing"

	"eulerfd/internal/cover"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/testutil"
)

func patientRelation() *dataset.Relation {
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

func TestMLFQQueueForMatchesTableIV(t *testing.T) {
	q := NewMLFQ(6)
	cases := []struct {
		capa float64
		want int
	}{
		{100, 0}, {10, 0}, {9.99, 1}, {1, 1}, {0.5, 2}, {0.1, 2},
		{0.05, 3}, {0.01, 3}, {0.005, 4}, {0.001, 4}, {0.0005, 5}, {0, 5},
	}
	for _, c := range cases {
		if got := q.queueFor(c.capa); got != c.want {
			t.Errorf("queueFor(%v) = %d, want %d", c.capa, got, c.want)
		}
	}
	one := NewMLFQ(1)
	if one.queueFor(100) != 0 || one.queueFor(0) != 0 {
		t.Error("single queue must absorb everything")
	}
	if NewMLFQ(0).queueFor(5) != 0 {
		t.Error("NewMLFQ should clamp to one queue")
	}
}

func TestMLFQPriorityOrder(t *testing.T) {
	q := NewMLFQ(3)
	lo := &clusterState{}
	hi := &clusterState{}
	mid := &clusterState{}
	q.Push(lo, 0)
	q.Push(hi, 50)
	q.Push(mid, 5)
	order := []*clusterState{hi, mid, lo}
	for i, want := range order {
		got, ok := q.Pop()
		if !ok || got != want {
			t.Fatalf("pop %d wrong", i)
		}
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Error("queue should be empty")
	}
}

func TestSamplerWindowPairs(t *testing.T) {
	// One cluster of 4 rows in a 2-column relation where col0 is constant
	// within the cluster. Window 2 yields pairs (0,1),(1,2),(2,3); window
	// 3 yields (0,2),(1,3); window 4 yields (0,3). Total C(4,2)=6 pairs.
	r := dataset.MustNew("t", []string{"A", "B"}, [][]string{
		{"x", "1"}, {"x", "2"}, {"x", "3"}, {"x", "4"},
	})
	enc := preprocess.Encode(r)
	s := NewSampler(enc, DefaultOptions())
	var all []fdset.AttrSet
	for {
		all = append(all, s.Drain()...)
		if !s.Reseed() {
			break
		}
	}
	if s.PairsCompared != 6 {
		t.Errorf("PairsCompared = %d, want 6", s.PairsCompared)
	}
	// All pairs agree exactly on {A}: a single distinct agree set.
	if len(all) != 1 || all[0] != fdset.NewAttrSet(0) {
		t.Errorf("agree sets = %v", all)
	}
}

func TestSamplerNoDuplicateAgreeSets(t *testing.T) {
	enc := preprocess.Encode(patientRelation())
	s := NewSampler(enc, DefaultOptions())
	seen := map[fdset.AttrSet]bool{}
	for {
		for _, a := range s.Drain() {
			if seen[a] {
				t.Fatalf("duplicate agree set %v", a)
			}
			seen[a] = true
		}
		if !s.Reseed() {
			break
		}
	}
	if len(seen) == 0 {
		t.Fatal("no agree sets found")
	}
}

func TestSamplerFullCoverageEqualsPairwise(t *testing.T) {
	// Sampling until every cluster is exhausted must discover exactly the
	// agree sets of every row pair that shares at least one attribute
	// value, and compare each intra-cluster pair exactly once: a pass that
	// repeats or skips a window start can still find every agree set, but
	// not with Σ C(|c|, 2) compared pairs.
	enc := preprocess.Encode(patientRelation())
	want := map[fdset.AttrSet]bool{}
	for i := 0; i < enc.NumRows; i++ {
		for j := i + 1; j < enc.NumRows; j++ {
			a := enc.AgreeSet(i, j)
			if !a.IsEmpty() {
				want[a] = true
			}
		}
	}
	wantPairs := 0
	for _, c := range enc.AllClusters() {
		wantPairs += len(c.Rows) * (len(c.Rows) - 1) / 2
	}
	for _, exhaustive := range []bool{false, true} {
		opt := DefaultOptions()
		opt.ExhaustWindows = exhaustive
		s := NewSampler(enc, opt)
		got := map[fdset.AttrSet]bool{}
		for {
			for _, a := range s.Drain() {
				got[a] = true
			}
			if !s.Reseed() {
				break
			}
		}
		if !s.Exhausted() {
			t.Fatalf("exhaustive=%v: sampling stopped before every window size was used", exhaustive)
		}
		if s.PairsCompared != wantPairs {
			t.Errorf("exhaustive=%v: PairsCompared = %d, want Σ C(|c|, 2) = %d", exhaustive, s.PairsCompared, wantPairs)
		}
		if len(got) != len(want) {
			t.Fatalf("exhaustive=%v: coverage %d agree sets, want %d", exhaustive, len(got), len(want))
		}
		for a := range want {
			if !got[a] {
				t.Errorf("exhaustive=%v: missing %v", exhaustive, a)
			}
		}
	}
}

func TestClusterStateRing(t *testing.T) {
	c := &clusterState{recent: make([]float64, 3)}
	if c.avgRecentCapa() != 0 || c.lastCapa() != 0 {
		t.Error("empty ring should read 0")
	}
	c.pushCapa(3)
	c.pushCapa(6)
	if c.avgRecentCapa() != 4.5 || c.lastCapa() != 6 {
		t.Errorf("avg=%v last=%v", c.avgRecentCapa(), c.lastCapa())
	}
	c.pushCapa(0)
	c.pushCapa(0) // evicts 3
	if c.avgRecentCapa() != 2 || c.lastCapa() != 0 {
		t.Errorf("after wrap: avg=%v last=%v", c.avgRecentCapa(), c.lastCapa())
	}
}

func TestSamplerExhaustionNoReseed(t *testing.T) {
	r := dataset.MustNew("t", []string{"A"}, [][]string{{"x"}, {"x"}})
	enc := preprocess.Encode(r)
	s := NewSampler(enc, DefaultOptions())
	s.Drain()
	if !s.Exhausted() {
		t.Error("2-row single cluster should exhaust after one drain")
	}
	if s.Reseed() {
		t.Error("Reseed must report false when everything is exhausted")
	}
}

func TestMLFQRetune(t *testing.T) {
	q := NewMLFQ(4)
	q.Retune(2.0)
	// Ladder becomes 2, 0.2, 0.02.
	cases := []struct {
		capa float64
		want int
	}{{2.5, 0}, {2.0, 0}, {1.0, 1}, {0.2, 1}, {0.1, 2}, {0.02, 2}, {0.001, 3}}
	for _, c := range cases {
		if got := q.queueFor(c.capa); got != c.want {
			t.Errorf("after Retune(2): queueFor(%v) = %d, want %d", c.capa, got, c.want)
		}
	}
	// Degenerate retunes are no-ops.
	before := append([]float64(nil), q.thresholds...)
	q.Retune(0)
	q.Retune(-1)
	for i, v := range q.thresholds {
		if v != before[i] {
			t.Error("Retune with non-positive anchor changed thresholds")
		}
	}
	one := NewMLFQ(1)
	one.Retune(5) // must not panic with no thresholds
}

func TestDynamicCapaRangesStillSound(t *testing.T) {
	// The dynamic-range extension must not change the structural
	// guarantees: exhaustive+dynamic equals exhaustive output.
	rel := patientRelation()
	enc := preprocess.Encode(rel)
	base := DefaultOptions()
	base.ThNcover, base.ThPcover = 0, 0
	base.ExhaustWindows = true
	dyn := base
	dyn.DynamicCapaRanges = true
	a, _ := DiscoverEncoded(enc, base)
	b, _ := DiscoverEncoded(enc, dyn)
	if !a.Equal(b) {
		t.Errorf("dynamic ranges changed exhaustive output:\n%v\nvs\n%v", a.Slice(), b.Slice())
	}
}

// TestMLFQRequeueOrderRegression pins the full service order of an
// interleaved Push/Pop sequence across the Table IV ladder. Queues and
// thresholds are plain slices indexed by queue number — no map is
// involved anywhere in the MLFQ — so this order is part of the
// determinism contract: it must be queue-ascending and FIFO within a
// queue. Any reintroduction of map-keyed queue state would break this
// test on the first run.
func TestMLFQRequeueOrderRegression(t *testing.T) {
	q := NewMLFQ(4) // thresholds 10, 1, 0.1 (Table IV)
	cs := make([]*clusterState, 8)
	for i := range cs {
		cs[i] = &clusterState{}
	}
	// queueFor mapping first: pin the ladder itself.
	for _, tc := range []struct {
		capa float64
		want int
	}{
		{50, 0}, {10, 0}, {9.9, 1}, {1, 1}, {0.99, 2}, {0.1, 2}, {0.05, 3}, {0, 3},
	} {
		if got := q.queueFor(tc.capa); got != tc.want {
			t.Fatalf("queueFor(%v) = %d, want %d", tc.capa, got, tc.want)
		}
	}
	// Interleave pushes into every level, with a mid-stream pop and a
	// requeue of the popped cluster, the way a drain round does.
	q.Push(cs[0], 0.5)  // q2
	q.Push(cs[1], 20)   // q0
	q.Push(cs[2], 0)    // q3
	q.Push(cs[3], 2)    // q1
	q.Push(cs[4], 15)   // q0, behind cs[1]
	first, _ := q.Pop() // cs[1]: head of q0
	if first != cs[1] {
		t.Fatalf("first pop = cs[%d], want cs[1]", indexOf(cs, first))
	}
	q.Push(first, 3)   // requeued after its pass: tail of q1, behind cs[3]
	q.Push(cs[5], 0.5) // q2, behind cs[0]
	q.Push(cs[6], 1)   // q1, behind cs[3] and the requeued cs[1]
	q.Push(cs[7], 0)   // q3, behind cs[2]

	want := []*clusterState{cs[4], cs[3], cs[1], cs[6], cs[0], cs[5], cs[2], cs[7]}
	for i, w := range want {
		got, ok := q.Pop()
		if !ok {
			t.Fatalf("queue empty after %d pops, want %d", i, len(want))
		}
		if got != w {
			t.Fatalf("pop %d = cs[%d], want cs[%d]", i, indexOf(cs, got), indexOf(cs, w))
		}
	}
	if _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Error("queue should be empty after the pinned sequence")
	}

	// Requeue cycle: the same capa schedule must reproduce the same
	// service order on every run (drain, re-push at decayed capa, drain).
	capas := []float64{12, 0.3, 7, 0.01, 1.5}
	var firstOrder []int
	for trial := 0; trial < 3; trial++ {
		for i, c := range capas {
			q.Push(cs[i], c)
		}
		var order []int
		for {
			c, ok := q.Pop()
			if !ok {
				break
			}
			order = append(order, indexOf(cs, c))
		}
		if trial == 0 {
			firstOrder = order
			continue
		}
		for i := range order {
			if order[i] != firstOrder[i] {
				t.Fatalf("trial %d service order %v differs from first %v", trial, order, firstOrder)
			}
		}
	}
	if want := []int{0, 2, 4, 1, 3}; len(firstOrder) != len(want) {
		t.Fatalf("service order %v, want %v", firstOrder, want)
	} else {
		for i := range want {
			if firstOrder[i] != want[i] {
				t.Fatalf("service order %v, want %v", firstOrder, want)
			}
		}
	}
}

func indexOf(cs []*clusterState, c *clusterState) int {
	for i := range cs {
		if cs[i] == c {
			return i
		}
	}
	return -1
}

// TestSamplePassSteadyStateAllocFree pins the sampler's per-pair loop: a
// window pass whose masks the dedup set already holds, tallied into a
// witness table that holds them too, allocates nothing. It replays the
// first window of the largest cluster after the seeding drain swept it,
// on relations of one and of two mask words. Skipped under -race, whose
// instrumentation allocates.
func TestSamplePassSteadyStateAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("alloc assertions are meaningless under -race")
	}
	for _, ncols := range []int{6, 70} {
		attrs := make([]string, ncols)
		for a := range attrs {
			attrs[a] = fmt.Sprint("c", a)
		}
		rows := make([][]string, 600)
		for r := range rows {
			rows[r] = make([]string, ncols)
			for a := range rows[r] {
				rows[r][a] = fmt.Sprint(r * (a + 1) / 7 % (a + 3))
			}
		}
		enc := preprocess.Encode(dataset.MustNew("t", attrs, rows))
		s := NewSampler(enc, DefaultOptions())
		s.SetWitness(cover.NewMasks(preprocess.MaskWords(ncols), true, false))
		s.Drain()
		c := s.clusters[0]
		for _, d := range s.clusters {
			if len(d.rows) > len(c.rows) {
				c = d
			}
		}
		var found []fdset.AttrSet
		pass := func() {
			c.wseq = 0
			c.setWindow()
			s.samplePass(c, &found)
		}
		if pass(); len(found) != 0 || c.window != 3 {
			t.Fatalf("%d columns: replayed pass found %d new agree sets, window now %d", ncols, len(found), c.window)
		}
		if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
			t.Errorf("%d columns: %.1f allocs per replayed pass, want 0", ncols, allocs)
		}
	}
}
