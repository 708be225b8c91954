// Package core implements the EulerFD algorithm (Section IV of the
// paper): adaptive cluster sampling with a multilevel feedback queue and
// sliding windows, negative-cover construction, and inversion, organized
// in a double-cycle structure with two growth-rate stopping criteria.
package core

import (
	"math"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// clusterState tracks one stripped-partition cluster through multiple
// samples: its current sliding-window size and the capa history of
// recent passes.
type clusterState struct {
	rows   []int32
	window int // current window size; pairs are (rows[i], rows[i+window-1])
	wseq   int // window sizes consumed so far (cluster lifetime)
	wstart int // seeded rotation offset into the window-size cycle (Sampler.SetSeed)

	recent []float64 // ring of the last few pass capas
	rhead  int
	rlen   int
}

func newClusterState(c preprocess.Cluster) *clusterState {
	return &clusterState{rows: c.Rows, window: 2, recent: make([]float64, recentPasses)}
}

// exhausted reports whether every window size has been used up: no more
// non-repeating pairs remain in this cluster. The cycle holds the
// len(rows)-1 sizes 2..len(rows); each pass consumes one.
func (c *clusterState) exhausted() bool { return c.wseq >= len(c.rows)-1 }

// setWindow derives the current window size from the cycle position: the
// wseq-th element of the size sequence 2..len(rows) rotated by wstart.
// With wstart = 0 (the unseeded schedule) this is the identity sequence
// 2, 3, ..., len(rows) — byte-identical to the pre-seed engine.
func (c *clusterState) setWindow() {
	if span := len(c.rows) - 1; span > 0 {
		c.window = 2 + (c.wseq+c.wstart)%span
	}
}

// pushCapa records a completed pass capa into the recent ring.
func (c *clusterState) pushCapa(v float64) {
	c.recent[c.rhead] = v
	c.rhead = (c.rhead + 1) % len(c.recent)
	if c.rlen < len(c.recent) {
		c.rlen++
	}
}

// avgRecentCapa is the mean capa over recent passes (0 when none yet).
func (c *clusterState) avgRecentCapa() float64 {
	if c.rlen == 0 {
		return 0
	}
	sum := 0.0
	for i := 0; i < c.rlen; i++ {
		sum += c.recent[i]
	}
	return sum / float64(c.rlen)
}

// shouldRequeue decides whether the cluster stays in the MLFQ: it parks
// only once a full window of recent passes all produced zero capa ("until
// its average capa of recent samples equals to 0", Section IV-C). Until
// the ring has filled, the cluster always gets another pass.
func (c *clusterState) shouldRequeue() bool {
	if c.rlen < len(c.recent) {
		return true
	}
	return c.avgRecentCapa() > 0
}

// lastCapa is the capa of the most recent completed pass.
func (c *clusterState) lastCapa() float64 {
	if c.rlen == 0 {
		return 0
	}
	return c.recent[(c.rhead-1+len(c.recent))%len(c.recent)]
}

// MLFQ is the multilevel feedback queue over clusters. Queue 0 has the
// highest priority; thresholds follow Table IV of the paper: the highest
// queue holds capa ∈ [10, ∞) and each following queue divides the bound by
// ten, with the last queue absorbing [0, bound). Each level is a ring
// deque so Push and Pop are O(1) and popped heads are not retained.
type MLFQ struct {
	queues     []deque
	thresholds []float64 // len = numQueues-1, descending
	count      int
}

// NewMLFQ builds an empty MLFQ with the given number of queues (≥ 1).
func NewMLFQ(numQueues int) *MLFQ {
	if numQueues < 1 {
		numQueues = 1
	}
	th := make([]float64, numQueues-1)
	for k := range th {
		th[k] = math.Pow(10, float64(1-k)) // 10, 1, 0.1, ... (Table IV)
	}
	return &MLFQ{queues: make([]deque, numQueues), thresholds: th}
}

// Retune replaces the queue thresholds with a geometric ladder anchored at
// top: queue k admits capa ≥ top/10^k. This implements the paper's
// future-work proposal of revising capa ranges at runtime; the sampler
// calls it between drains when dynamic ranges are enabled. Enqueued
// clusters keep their positions — only future Push decisions change.
func (q *MLFQ) Retune(top float64) {
	if top <= 0 || len(q.thresholds) == 0 {
		return
	}
	for k := range q.thresholds {
		q.thresholds[k] = top / math.Pow(10, float64(k))
	}
}

// queueFor maps a capa value to its queue index.
func (q *MLFQ) queueFor(capa float64) int {
	for k, t := range q.thresholds {
		if capa >= t {
			return k
		}
	}
	return len(q.queues) - 1
}

// Push enqueues the cluster at the tail of the queue matching capa.
func (q *MLFQ) Push(c *clusterState, capa float64) {
	q.queues[q.queueFor(capa)].pushBack(c)
	q.count++
}

// Pop dequeues the head of the highest-priority non-empty queue.
func (q *MLFQ) Pop() (*clusterState, bool) {
	for k := range q.queues {
		if c, ok := q.queues[k].popFront(); ok {
			q.count--
			return c, true
		}
	}
	return nil, false
}

// Len returns the number of enqueued clusters.
func (q *MLFQ) Len() int { return q.count }

// Sampler is EulerFD's sampling module (Algorithm 1). It owns the MLFQ,
// the per-cluster sliding windows, and the agree-set deduplication table
// that makes capa count only genuinely new evidence. It runs on the
// caller's goroutine: the worker pool serves the cover stages, not the
// window sweeps.
type Sampler struct {
	enc      *preprocess.Encoded
	queue    *MLFQ
	clusters []*clusterState
	// seen deduplicates sampled evidence at the agree-set level: the
	// disagree set of a pair is always the complement of its agree set,
	// so one agree set fully determines the pair's non-FDs.
	seen *cover.Masks

	// masks is the scratch buffer of the window sweep; grown once to
	// sampleBatchPairs masks and reused forever.
	masks []uint64

	seeded bool
	// exhaustive disables capa-based parking: clusters are requeued until
	// every window size is used, guaranteeing full pair coverage (and,
	// with the ∅-seed, an exact result). Used by tests and ablations.
	exhaustive bool
	// dynamicRanges enables runtime retuning of the MLFQ capa thresholds
	// (the paper's future-work extension): on every Reseed the ladder is
	// re-anchored at the highest capa observed in the last generation of
	// passes, so prioritization keeps discriminating even after absolute
	// capa values have decayed below the static Table IV ranges.
	dynamicRanges bool
	maxRecentCapa float64

	// wit, when non-nil, accumulates witness tallies per agree set in
	// (pair × shared attribute) units: every swept pair occurrence adds one
	// count to its agree set. A pair agreeing on k attributes lies in
	// exactly k single-attribute clusters and each cluster sweeps each of
	// its pairs exactly once across the window cycle, so an exhaustive run
	// leaves witness[S] = |S| · #pairs-with-agree-set-S — the same unit the
	// incremental delta scan adds or subtracts as popcount(agree) per pair.
	// Non-exhaustive runs leave partial (never over-counted) tallies. Nil
	// disables witnessing entirely, keeping one-shot discovery free of the
	// bookkeeping.
	wit *cover.Masks

	// Stats
	PairsCompared int
}

// NewSampler prepares sampling state over an encoded relation, set up
// from opt: the MLFQ depth (NumQueues), capa-based parking
// (ExhaustWindows), runtime capa ranges (DynamicCapaRanges) and the
// sampling schedule (Seed).
func NewSampler(enc *preprocess.Encoded, opt Options) *Sampler {
	opt = opt.withDefaults()
	s := &Sampler{
		enc:           enc,
		queue:         NewMLFQ(opt.NumQueues),
		seen:          cover.NewMasks(preprocess.MaskWords(len(enc.Attrs)), false, false),
		exhaustive:    opt.ExhaustWindows,
		dynamicRanges: opt.DynamicCapaRanges,
	}
	for _, c := range enc.AllClusters() {
		s.clusters = append(s.clusters, newClusterState(c))
	}
	s.SetSeed(opt.Seed)
	return s
}

// SetWitness attaches the witness tallies the sweeps maintain, a counted
// table. core.Incremental hands its long-lived table here during
// bootstrap so deletes can later decrement the same tallies.
func (s *Sampler) SetWitness(t *cover.Masks) { s.wit = t }

// SeenCount returns the number of distinct agree sets sampled so far.
func (s *Sampler) SeenCount() int { return s.seen.Len() }

// Exhausted reports whether no further pairs can ever be produced: the
// MLFQ is empty and every cluster has used all window sizes.
func (s *Sampler) Exhausted() bool {
	if s.queue.Len() > 0 || !s.seeded {
		return false
	}
	for _, c := range s.clusters {
		if !c.exhausted() {
			return false
		}
	}
	return true
}

// Reseed re-enqueues every non-exhausted cluster for another round of
// passes, clearing capa history so each gets a full window of fresh
// chances. (Keeping the history — one probe pass per parked cluster —
// was measured to cost real recall: rare non-FDs surface on the extra
// windows, which is exactly why the double cycle re-samples.) The double
// cycle calls this when GR_Pcover demands more samples but the MLFQ has
// drained. It reports whether any cluster was re-enqueued.
func (s *Sampler) Reseed() bool {
	if s.dynamicRanges && s.maxRecentCapa > 0 {
		s.queue.Retune(s.maxRecentCapa)
		s.maxRecentCapa = 0
	}
	re := false
	for _, c := range s.clusters {
		if c.exhausted() {
			continue
		}
		c.rlen, c.rhead = 0, 0
		s.queue.Push(c, c.lastCapa())
		re = true
	}
	return re
}

// Drain runs Algorithm 1 until no cluster is left in the MLFQ and
// returns the distinct new agree sets it found, in discovery order. The
// first call is the seeding pass: one window-2 pass over every cluster,
// each enqueued by its capa. Then it pops the highest-priority cluster,
// runs one pass over it and requeues it by capa, until the queue is
// empty. Parked clusters wait for a Reseed.
func (s *Sampler) Drain() []fdset.AttrSet {
	var found []fdset.AttrSet
	if !s.seeded {
		s.seeded = true
		for _, c := range s.clusters {
			s.samplePass(c, &found)
			s.requeue(c)
		}
	}
	for {
		c, ok := s.queue.Pop()
		if !ok {
			return found
		}
		s.samplePass(c, &found)
		s.requeue(c)
	}
}

// requeue enqueues c by the capa of its last pass unless every window
// size is spent or, outside exhaustive mode, its recent passes found
// nothing new.
func (s *Sampler) requeue(c *clusterState) {
	if !c.exhausted() && (s.exhaustive || c.shouldRequeue()) {
		s.queue.Push(c, c.lastCapa())
	}
}

// sampleBatchPairs is the batch size of the window sweep: large enough
// to amortize the call into preprocess and keep the mask buffer resident
// in L1, small enough not to bloat the scratch.
const sampleBatchPairs = 4096

// samplePass runs one sliding-window pass over cluster c: it compares the
// pair (rows[i], rows[i+window-1]) at every window start i, appends the
// agree sets new to the dedup table to found, records the pass's capa —
// new non-FDs per compared pair — and widens the window. Agree masks are
// computed in batches by the branch-free kernel, runs of identical
// consecutive masks — the common case on low-cardinality data — are
// handled as one, and only run heads probe the dedup table.
func (s *Sampler) samplePass(c *clusterState, found *[]fdset.AttrSet) {
	if c.exhausted() {
		return
	}
	mw := preprocess.MaskWords(len(s.enc.Attrs))
	if len(s.masks) < sampleBatchPairs*mw {
		s.masks = make([]uint64, sampleBatchPairs*mw)
	}
	pairs := len(c.rows) - c.window + 1 // one pair per window start
	newNonFDs := 0
	for from := 0; from < pairs; from += sampleBatchPairs {
		to := min(from+sampleBatchPairs, pairs)
		masks := s.masks[:(to-from)*mw]
		s.enc.AgreeWindowWords(c.rows, c.window, from, to, masks)
		if s.wit != nil {
			s.wit.AddRuns(masks, 1, false)
		}
		n := len(*found)
		*found = s.seen.AppendNew(*found, masks)
		for _, x := range (*found)[n:] {
			// A pair disagreeing on k attributes witnesses k non-FDs.
			newNonFDs += len(s.enc.Attrs) - x.Count()
		}
		s.PairsCompared += to - from
	}

	capa := float64(newNonFDs) / float64(pairs)
	c.pushCapa(capa)
	s.maxRecentCapa = max(s.maxRecentCapa, capa)
	c.wseq++
	c.setWindow()
}
