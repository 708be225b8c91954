// Package core implements the EulerFD algorithm (Section IV of the
// paper): adaptive cluster sampling with a multilevel feedback queue and
// sliding windows, negative-cover construction, and inversion, organized
// in a double-cycle structure with two growth-rate stopping criteria.
package core

import (
	"math"

	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
)

// clusterState tracks one stripped-partition cluster through multiple
// samples: its current sliding-window size, the position of the window in
// the pass now underway, and the capa history of recent passes.
type clusterState struct {
	rows   []int32
	window int // current window size; pairs are (rows[i], rows[i+window-1])
	pos    int // next window start within the current pass
	wseq   int // window sizes consumed so far (cluster lifetime)
	wstart int // seeded rotation offset into the window-size cycle (Sampler.SetSeed)

	// Pass accounting: capa of a pass = newNonFDs/pairs over the whole
	// pass even when a pass is split across batches by the pair quota.
	passPairs int
	passNew   int

	recent []float64 // ring of the last few pass capas
	rhead  int
	rlen   int
}

func newClusterState(c preprocess.Cluster, recentLen int) *clusterState {
	return &clusterState{rows: c.Rows, window: 2, recent: make([]float64, recentLen)}
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
// deque so Pop and PushFront are O(1) and popped heads are not retained.
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

// PushFront re-enqueues a cluster at the head of the queue matching capa,
// used to resume a pass interrupted by the batch pair quota.
func (q *MLFQ) PushFront(c *clusterState, capa float64) {
	q.queues[q.queueFor(capa)].pushFront(c)
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
// that makes capa count only genuinely new evidence.
type Sampler struct {
	enc      *preprocess.Encoded
	queue    *MLFQ
	clusters []*clusterState
	// seen deduplicates sampled evidence at the agree-set level: the
	// disagree set of a pair is always the complement of its agree set,
	// so one agree set fully determines the pair's non-FDs. Its exact
	// front cache answers most repeats before the map probe.
	seen *maskTable

	// masks is the scratch buffer of the sequential sweep (sweep); grown
	// once to the batch size and reused forever.
	masks []uint64

	numQueues int
	recentLen int
	seeded    bool
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
	wit *maskTable

	// pool, when non-nil, parallelizes large window sweeps: the pair range
	// of a pass is cut into chunks dispatched to the persistent workers,
	// which fill per-chunk scratch buffers; the coordinator then merges the
	// chunks sequentially into seen, so dedup, capa accounting, and requeue
	// decisions are bit-identical to the sequential path.
	pool   *pool.Pool
	chunks []passChunk // per-chunk result scratch, reused across passes
	// Per-worker chunk filters, indexed by the pool worker id
	// (pool.DoIndexed). Each chunk starts a new generation, so a filter
	// only ever drops repeats within its own chunk, and which worker's
	// filter serves which chunk cannot change what the coordinator sees
	// first.
	filters []*maskFilter

	// Stats
	PairsCompared int
	Passes        int
}

// passChunk is the result scratch of one parallel chunk of a window
// sweep. Each concurrent chunk owns exactly one passChunk, so workers
// never share mutable result state; buffers are reused across passes to
// keep allocation off the hot path.
type passChunk struct {
	from, to int      // window positions [from, to) of this chunk
	masks    []uint64 // the chunk's agree masks
	uniq     []int32  // offsets into masks of first-in-chunk occurrences
}

// Chunking constants of the parallel pass: sweeps shorter than
// parallelMinPairs stay inline (dispatch overhead would dominate), and no
// chunk is cut below parallelChunkPairs.
const (
	parallelMinPairs   = 2048
	parallelChunkPairs = 1024
)

// NewSampler prepares sampling state over an encoded relation. numQueues
// is the MLFQ depth (paper default 6); recentLen is how many recent pass
// capas the requeue decision averages over.
func NewSampler(enc *preprocess.Encoded, numQueues, recentLen int) *Sampler {
	if recentLen < 1 {
		recentLen = 3
	}
	mw := preprocess.MaskWords(len(enc.Attrs))
	s := &Sampler{
		enc:       enc,
		queue:     NewMLFQ(numQueues),
		seen:      newMaskTable(mw),
		numQueues: numQueues,
		recentLen: recentLen,
	}
	s.seen.front = newMaskFilter(mw, frontBits)
	for _, c := range enc.AllClusters() {
		s.clusters = append(s.clusters, newClusterState(c, recentLen))
	}
	return s
}

// SetPool attaches a worker pool for parallel pass execution. A nil pool
// (or never calling SetPool) keeps the exact sequential path.
func (s *Sampler) SetPool(p *pool.Pool) { s.pool = p }

// SetWitness attaches the witness tallies the sweeps maintain.
// core.Incremental hands its long-lived table here during bootstrap so
// deletes can later decrement the same tallies.
func (s *Sampler) SetWitness(t *maskTable) { s.wit = t }

// SeenCount returns the number of distinct agree sets sampled so far.
func (s *Sampler) SeenCount() int { return s.seen.len() }

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

// Batch runs the sampling loop until roughly quotaPairs tuple pairs have
// been compared (or the MLFQ drains) and returns the distinct new agree
// sets discovered. The first call performs the initial pass over every
// cluster with window size 2 and seeds the MLFQ by capa.
func (s *Sampler) Batch(quotaPairs int) []fdset.AttrSet {
	if quotaPairs < 1 {
		quotaPairs = 1
	}
	var found []fdset.AttrSet
	budget := quotaPairs

	if !s.seeded {
		s.seeded = true
		for _, c := range s.clusters {
			n := s.samplePass(c, -1, &found) // initial pass is not quota-bound
			budget -= n
			if !c.exhausted() && (s.exhaustive || c.shouldRequeue()) {
				s.queue.Push(c, c.lastCapa())
			}
		}
		if budget <= 0 {
			return found
		}
	}

	for budget > 0 {
		c, ok := s.queue.Pop()
		if !ok {
			break
		}
		n := s.samplePass(c, budget, &found)
		budget -= n
		if c.pos > 0 {
			// Pass interrupted by quota: resume at the head of its queue
			// next batch, keyed by the capa of its last completed pass.
			s.queue.PushFront(c, c.lastCapa())
			continue
		}
		if c.exhausted() {
			continue
		}
		if s.exhaustive || c.shouldRequeue() {
			s.queue.Push(c, c.lastCapa())
		}
	}
	return found
}

// sampleBatchPairs is the batch size of the sequential sweep: large
// enough to amortize the call into preprocess and keep the mask buffer
// resident in L1, small enough not to bloat the scratch.
const sampleBatchPairs = 4096

// samplePass advances the cluster's sliding window by up to maxPairs pair
// comparisons (unbounded when maxPairs < 0). When the window completes its
// sweep the pass ends: capa is recorded and the window widens by one; an
// interrupted pass leaves c.pos > 0 so the caller resumes it later. It
// returns the number of pairs compared. Large sweeps are dispatched to the
// worker pool when one is attached; the result is identical either way.
func (s *Sampler) samplePass(c *clusterState, maxPairs int, found *[]fdset.AttrSet) int {
	if c.exhausted() {
		return 0
	}
	last := len(c.rows) - c.window // final window start of this pass
	n := last - c.pos + 1          // pairs remaining in this pass
	if maxPairs >= 0 && n > maxPairs {
		n = maxPairs
	}
	if s.pool != nil && n >= parallelMinPairs {
		s.sweepParallel(c, n, found)
	} else {
		s.sweep(c, n, found)
	}
	c.passPairs += n
	s.PairsCompared += n
	if c.pos <= last {
		return n // interrupted by the quota; the caller resumes later
	}
	s.finishPass(c)
	return n
}

// sweep advances n pairs of the sweep sequentially: agree masks are
// computed in batches by the branch-free kernel, runs of identical
// consecutive masks — the common case on low-cardinality data — are
// handled as one, and only run heads probe the dedup table.
func (s *Sampler) sweep(c *clusterState, n int, found *[]fdset.AttrSet) {
	mw := s.seen.mw
	if len(s.masks) < sampleBatchPairs*mw {
		s.masks = make([]uint64, sampleBatchPairs*mw)
	}
	for n > 0 {
		m := min(n, sampleBatchPairs)
		masks := s.masks[:m*mw]
		s.enc.AgreeWindowWords(c.rows, c.window, c.pos, c.pos+m, masks)
		if s.wit != nil {
			s.wit.addMasks(masks, 1, false)
		}
		for i := s.seen.nextNew(masks, 0); i < len(masks); i = s.seen.nextNew(masks, i+mw) {
			s.record(c, masks[i:i+mw], found)
		}
		c.pos += m
		n -= m
	}
}

// record appends mask m, new to seen, to found and counts its non-FDs
// toward the pass's capa. Popcount runs only for globally new masks,
// where the per-mask work (one append, one map insert) dwarfs it anyway.
func (s *Sampler) record(c *clusterState, m []uint64, found *[]fdset.AttrSet) {
	*found = append(*found, maskSet(m))
	// A pair disagreeing on k attributes witnesses k non-FDs.
	c.passNew += len(s.enc.Attrs) - maskCount(m)
}

// sweepParallel advances n pairs of the sweep through the worker pool:
// the position range is cut into chunks, each worker computes its chunk's
// agree masks with the batched kernel into the chunk's private buffer and
// drops repeats within the chunk through its per-worker filter (a new
// generation per chunk, so worker identity cannot reach the uniq list),
// and the coordinator merges chunks in position order against the global
// seen table. A filter miss only adds an entry to uniq that the seen table
// then rejects, and a hit only elides a pair the sequential path would
// also have classified as a duplicate, so — merge order being sweep order
// — found order, capa accounting, and all statistics are bit-identical to
// the sequential path.
func (s *Sampler) sweepParallel(c *clusterState, n int, found *[]fdset.AttrSet) {
	chunk := max((n+s.pool.Workers()-1)/s.pool.Workers(), parallelChunkPairs)
	numChunks := (n + chunk - 1) / chunk
	for len(s.chunks) < numChunks {
		s.chunks = append(s.chunks, passChunk{})
	}
	for k := 0; k < numChunks; k++ {
		from := c.pos + k*chunk
		s.chunks[k].from, s.chunks[k].to = from, min(from+chunk, c.pos+n)
	}
	if s.filters == nil {
		s.filters = make([]*maskFilter, s.pool.NumScratch())
	}
	mw := s.seen.mw
	s.pool.DoIndexed(numChunks, func(k, worker int) {
		ch := &s.chunks[k]
		m := (ch.to - ch.from) * mw
		if cap(ch.masks) < m {
			ch.masks = make([]uint64, m)
		}
		ch.masks = ch.masks[:m]
		s.enc.AgreeWindowWords(c.rows, c.window, ch.from, ch.to, ch.masks)
		local := s.filters[worker]
		if local == nil {
			local = newMaskFilter(mw, chunkBits)
			s.filters[worker] = local
		} else {
			local.reset()
		}
		ch.uniq = local.firstRuns(ch.masks, ch.uniq[:0])
	})
	for k := 0; k < numChunks; k++ {
		ch := &s.chunks[k]
		for _, i := range ch.uniq {
			if m := ch.masks[i : int(i)+mw]; s.seen.insert(m) {
				s.record(c, m, found)
			}
		}
		// Witness tallies count every pair of the chunk, not just
		// chunk-unique masks.
		if s.wit != nil {
			s.wit.addMasks(ch.masks, 1, false)
		}
	}
	c.pos += n
}

// finishPass records the completed pass's capa and widens the window.
func (s *Sampler) finishPass(c *clusterState) {
	capa := 0.0
	if c.passPairs > 0 {
		capa = float64(c.passNew) / float64(c.passPairs)
	}
	c.pushCapa(capa)
	if capa > s.maxRecentCapa {
		s.maxRecentCapa = capa
	}
	s.Passes++
	c.passPairs, c.passNew = 0, 0
	c.pos = 0
	c.wseq++
	c.setWindow()
}
