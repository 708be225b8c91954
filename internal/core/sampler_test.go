package core

import (
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
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

func TestMLFQPushFront(t *testing.T) {
	q := NewMLFQ(2)
	a, b := &clusterState{}, &clusterState{}
	q.Push(a, 0)
	q.PushFront(b, 0)
	if got, _ := q.Pop(); got != b {
		t.Error("PushFront should jump the queue")
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
	s := NewSampler(enc, 6, 3)
	var all []fdset.AttrSet
	for !s.Exhausted() {
		got := s.Batch(1 << 20)
		all = append(all, got...)
		if len(got) == 0 && s.queue.Len() == 0 {
			if !s.Reseed() {
				break
			}
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

func TestSamplerQuotaInterruptsAndResumes(t *testing.T) {
	rows := make([][]string, 64)
	for i := range rows {
		rows[i] = []string{"c", string(rune('a' + i%7)), string(rune('a' + i%11))}
	}
	r := dataset.MustNew("t", []string{"A", "B", "C"}, rows)
	enc := preprocess.Encode(r)

	// Sample everything with a tiny quota and with a huge quota; the set
	// of distinct agree sets must be identical (quota only batches work).
	collect := func(quota int) map[fdset.AttrSet]bool {
		s := NewSampler(enc, 6, 3)
		out := map[fdset.AttrSet]bool{}
		for {
			got := s.Batch(quota)
			for _, a := range got {
				out[a] = true
			}
			if s.queue.Len() == 0 && !s.Reseed() {
				break
			}
		}
		return out
	}
	small, big := collect(7), collect(1<<20)
	if len(small) == 0 || len(small) != len(big) {
		t.Fatalf("agree-set coverage differs: %d vs %d", len(small), len(big))
	}
	for a := range big {
		if !small[a] {
			t.Errorf("missing agree set %v under small quota", a)
		}
	}
}

func TestSamplerNoDuplicateAgreeSets(t *testing.T) {
	enc := preprocess.Encode(patientRelation())
	s := NewSampler(enc, 6, 3)
	seen := map[fdset.AttrSet]bool{}
	for {
		got := s.Batch(1000)
		for _, a := range got {
			if seen[a] {
				t.Fatalf("duplicate agree set %v", a)
			}
			seen[a] = true
		}
		if s.queue.Len() == 0 && !s.Reseed() {
			break
		}
	}
	if len(seen) == 0 {
		t.Fatal("no agree sets found")
	}
}

func TestSamplerFullCoverageEqualsPairwise(t *testing.T) {
	// Exhaustive sampling must discover exactly the agree sets of every
	// row pair that shares at least one attribute value.
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
	s := NewSampler(enc, 6, 3)
	got := map[fdset.AttrSet]bool{}
	for {
		for _, a := range s.Batch(1 << 20) {
			got[a] = true
		}
		if s.queue.Len() == 0 && !s.Reseed() {
			break
		}
	}
	if len(got) != len(want) {
		t.Fatalf("coverage %d agree sets, want %d", len(got), len(want))
	}
	for a := range want {
		if !got[a] {
			t.Errorf("missing %v", a)
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
	s := NewSampler(enc, 6, 3)
	s.Batch(100)
	if !s.Exhausted() {
		t.Error("2-row single cluster should exhaust after one batch")
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
// interleaved Push/PushFront/Pop sequence across the Table IV ladder.
// Queues and thresholds are plain slices indexed by queue number — no map
// is involved anywhere in the MLFQ — so this order is part of the
// determinism contract: it must be queue-ascending, FIFO within a queue,
// with PushFront jumping only its own queue. Any reintroduction of
// map-keyed queue state would break this test on the first run.
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
	// Interleave pushes into every level, with a mid-stream pop and an
	// interrupted-pass PushFront, the way a drain round does.
	q.Push(cs[0], 0.5)  // q2
	q.Push(cs[1], 20)   // q0
	q.Push(cs[2], 0)    // q3
	q.Push(cs[3], 2)    // q1
	q.Push(cs[4], 15)   // q0, behind cs[1]
	first, _ := q.Pop() // cs[1]: head of q0
	if first != cs[1] {
		t.Fatalf("first pop = cs[%d], want cs[1]", indexOf(cs, first))
	}
	q.PushFront(first, 3) // pass interrupted by quota: resumes at head of q1
	q.Push(cs[5], 0.5)    // q2, behind cs[0]
	q.Push(cs[6], 1)      // q1, behind the re-queued cs[1] and cs[3]
	q.Push(cs[7], 0)      // q3, behind cs[2]

	want := []*clusterState{cs[4], cs[1], cs[3], cs[6], cs[0], cs[5], cs[2], cs[7]}
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

// TestMaskFilterExact pins what the sampler's dedup shortcuts rely on: a
// filter reports a mask only if it stored that mask in the current
// generation — the empty mask included — and a new generation, even one
// that wraps the tag counter, forgets everything. It runs at one and two
// mask words.
func TestMaskFilterExact(t *testing.T) {
	for _, mw := range []int{1, 2} {
		f := newMaskFilter(mw, 4)
		zero := make([]uint64, mw)
		if f.seenOrAdd(zero) || !f.seenOrAdd(zero) {
			t.Fatalf("mw=%d: empty mask: first lookup must miss, the second hit", mw)
		}
		// Find a mask sharing the empty mask's slot: storing it evicts the
		// empty mask, which must then miss rather than be confused with it.
		other := make([]uint64, mw)
		for other[mw-1] = 1; f.slot(other) != f.slot(zero); other[mw-1]++ {
		}
		if f.seenOrAdd(other) || f.seenOrAdd(zero) {
			t.Fatalf("mw=%d: a collided slot reported a mask it no longer holds", mw)
		}
		f.reset()
		if f.seenOrAdd(zero) {
			t.Fatalf("mw=%d: reset kept a mask of the previous generation", mw)
		}

		// A mask is stored under generation 1; after 2^32 − 1 resets the
		// tag counter wraps back to 1, and only clearing the tags keeps
		// the stale slot from matching again.
		f = newMaskFilter(mw, 4)
		seven := append(make([]uint64, mw-1), 7)
		f.seenOrAdd(seven)
		f.gen = ^uint32(0)
		f.reset()
		if f.gen != 1 || f.seenOrAdd(seven) {
			t.Fatalf("mw=%d: a wrapped generation revived a stale mask", mw)
		}
	}
}
