// Package core implements the EulerFD algorithm (Section IV of the
// paper): adaptive cluster sampling with a multilevel feedback queue and
// sliding windows, negative-cover construction, and inversion, organized
// in a double-cycle structure with two growth-rate stopping criteria.
package core

import (
	"math"
	"math/bits"

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
	// so one agree set fully determines the pair's non-FDs. Relations of
	// ≤ 64 columns (word == true, every dataset in the evaluation) dedup
	// on raw uint64 agree masks in seenW instead — probing an 8-byte key
	// is markedly cheaper than hashing a 48-byte AttrSet, and the mask ↔
	// AttrSet mapping is bijective below 64 columns so the two tables
	// record exactly the same evidence.
	seen  map[fdset.AttrSet]struct{}
	seenW map[uint64]struct{}
	word  bool
	// front is an exact cache of masks already in seenW, checked before
	// the map probe. seenW never shrinks, so a hit is always a duplicate;
	// a miss (an empty or collided slot) falls through to the map.
	front *maskFilter[uint64]

	// words is the scratch buffer of the sequential batched kernel
	// (samplePass); grown once to the batch size and reused forever.
	words []uint64

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

	// witW/wit, when non-nil, accumulate witness tallies per agree set in
	// (pair × shared attribute) units: every swept pair occurrence adds one
	// count to its agree set. A pair agreeing on k attributes lies in
	// exactly k single-attribute clusters and each cluster sweeps each of
	// its pairs exactly once across the window cycle, so an exhaustive run
	// leaves witness[S] = |S| · #pairs-with-agree-set-S — the same unit the
	// incremental delta scan adds or subtracts as popcount(agree) per pair.
	// Non-exhaustive runs leave partial (never over-counted) tallies; the
	// word/wide split mirrors seenW/seen. Nil disables witnessing entirely,
	// keeping one-shot discovery free of the bookkeeping.
	witW map[uint64]int64
	wit  map[fdset.AttrSet]int64

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
	chunkSets  []*maskFilter[fdset.AttrSet]
	chunkWords []*maskFilter[uint64]

	// Stats
	PairsCompared int
	Passes        int
}

// passChunk is the result scratch of one parallel chunk of a window
// sweep. Each concurrent chunk owns exactly one passChunk, so workers
// never share mutable result state; buffers are reused across passes to
// keep allocation off the hot path. words carries the single-word fast
// path (≤ 64 columns), sets/counts the wide path.
type passChunk struct {
	from, to int // window positions [from, to) of this chunk
	words    []uint64
	sets     []fdset.AttrSet
	counts   []int32
	uniq     []int32 // indices into words/sets of first-in-chunk occurrences
	// Witness aggregation scratch: run-grouped (mask, add) pairs covering
	// every pair of the chunk — unlike uniq, duplicates count. Filled by the
	// worker, merged by the coordinator; addition commutes, so merge order
	// cannot change the tallies.
	wkeys []uint64
	wsets []fdset.AttrSet
	wadds []int32
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
	s := &Sampler{
		enc:       enc,
		queue:     NewMLFQ(numQueues),
		word:      len(enc.Attrs) <= 64,
		numQueues: numQueues,
		recentLen: recentLen,
	}
	if s.word {
		s.seenW = make(map[uint64]struct{})
		s.front = newMaskFilter[uint64](frontBits)
	} else {
		s.seen = make(map[fdset.AttrSet]struct{})
	}
	for _, c := range enc.AllClusters() {
		s.clusters = append(s.clusters, newClusterState(c, recentLen))
	}
	return s
}

// SetPool attaches a worker pool for parallel pass execution. A nil pool
// (or never calling SetPool) keeps the exact sequential path.
func (s *Sampler) SetPool(p *pool.Pool) { s.pool = p }

// SetWitness attaches witness tallies the sweeps maintain; pass the map
// matching the relation's width (words for ≤ 64 columns, sets otherwise —
// the same split as the dedup tables). core.Incremental hands its
// long-lived maps here during bootstrap so deletes can later decrement
// the same tallies.
func (s *Sampler) SetWitness(words map[uint64]int64, sets map[fdset.AttrSet]int64) {
	s.witW, s.wit = words, sets
}

// addWitnessRunsWord folds a batch of agree masks into the witness table,
// one map operation per run of identical consecutive masks.
func addWitnessRunsWord(m map[uint64]int64, words []uint64) {
	for i := 0; i < len(words); {
		w := words[i]
		j := i + 1
		for j < len(words) && words[j] == w {
			j++
		}
		if w != 0 {
			m[w] += int64(j - i)
		}
		i = j
	}
}

// frontBits and chunkBits size the sampler's mask filters: 2^bits
// direct-mapped slots each. The front cache spans a whole discovery, and
// the relations the benchmark samples yield hundreds to a few thousand
// distinct masks in all; a chunk filter spans at most a few thousand
// pairs.
const (
	frontBits = 12
	chunkBits = 10
)

// maskFilter is a fixed-size direct-mapped set of agree masks: one key
// per slot, the slot picked by the key's hash. A slot holds its key only
// while its tag equals the current generation, so a new generation
// empties the filter in O(1), and no key value — not even the empty agree
// set's 0 — doubles as "empty". A lookup can miss a key the filter saw
// (a later key took the slot) but never reports one it did not see.
type maskFilter[K comparable] struct {
	keys  []K
	tags  []uint32
	gen   uint32
	shift uint
}

func newMaskFilter[K comparable](bits uint) *maskFilter[K] {
	return &maskFilter[K]{
		keys:  make([]K, 1<<bits),
		tags:  make([]uint32, 1<<bits),
		gen:   1,
		shift: 64 - bits,
	}
}

// reset starts a new generation, emptying the filter.
func (f *maskFilter[K]) reset() {
	f.gen++
	if f.gen == 0 { // wrapped: tags of old generations could match again
		clear(f.tags)
		f.gen = 1
	}
}

// seenOrAdd reports whether k, whose hash is h, is in the filter, and
// otherwise stores it in its slot.
//
//fdlint:hotpath
func (f *maskFilter[K]) seenOrAdd(k K, h uint64) bool {
	i := (h * 0x9E3779B97F4A7C15) >> f.shift
	if f.tags[i] == f.gen && f.keys[i] == k {
		return true
	}
	f.keys[i], f.tags[i] = k, f.gen
	return false
}

// SeenCount returns the number of distinct agree sets sampled so far,
// whichever dedup table is active.
func (s *Sampler) SeenCount() int {
	if s.word {
		return len(s.seenW)
	}
	return len(s.seen)
}

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

// sampleBatchPairs is the batch size of the sequential word-path kernel:
// large enough to amortize the call into preprocess and keep the mask
// buffer resident in L1, small enough not to bloat the scratch.
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
		return s.samplePassParallel(c, n, last, found)
	}
	if s.word {
		s.sweepWord(c, n, found)
	} else {
		s.sweepWide(c, n, found)
	}
	c.passPairs += n
	s.PairsCompared += n
	if c.pos <= last {
		return n // interrupted by the quota; the caller resumes later
	}
	s.finishPass(c)
	return n
}

// sweepWord advances n pairs of the sweep on the single-word fast path:
// agree masks are computed in batches by the branch-free kernel, runs of
// identical consecutive masks — the common case on low-cardinality data —
// are skipped as guaranteed duplicates, and only run heads probe the
// dedup table. Popcount runs only for globally-new masks, where the
// per-pair work (one append, one map insert) dwarfs it anyway.
func (s *Sampler) sweepWord(c *clusterState, n int, found *[]fdset.AttrSet) {
	ncols := len(s.enc.Attrs)
	if cap(s.words) < sampleBatchPairs {
		s.words = make([]uint64, sampleBatchPairs)
	}
	for n > 0 {
		m := n
		if m > sampleBatchPairs {
			m = sampleBatchPairs
		}
		words := s.words[:m]
		s.enc.AgreeWindowWords(c.rows, c.window, c.pos, c.pos+m, words)
		if s.witW != nil {
			addWitnessRunsWord(s.witW, words)
		}
		for i := 0; i < m; i++ {
			w := words[i]
			if i > 0 && w == words[i-1] {
				continue
			}
			s.admitWord(c, w, ncols, found)
		}
		c.pos += m
		n -= m
	}
}

// admitWord records mask w of cluster c unless seenW already holds it:
// a new mask joins seenW and found, and counts its non-FDs toward the
// pass's capa. The front cache answers most repeats without a map probe.
func (s *Sampler) admitWord(c *clusterState, w uint64, ncols int, found *[]fdset.AttrSet) {
	if s.front.seenOrAdd(w, w) {
		return
	}
	if _, dup := s.seenW[w]; !dup {
		s.seenW[w] = struct{}{}
		*found = append(*found, fdset.FromWord(w))
		// A pair disagreeing on k attributes witnesses k non-FDs.
		c.passNew += ncols - bits.OnesCount64(w)
	}
}

// sweepWide is the > 64-column sequential sweep, deduplicating whole
// AttrSets.
func (s *Sampler) sweepWide(c *clusterState, n int, found *[]fdset.AttrSet) {
	ncols := len(s.enc.Attrs)
	for k := 0; k < n; k++ {
		i, j := c.rows[c.pos], c.rows[c.pos+c.window-1]
		agree := s.enc.AgreeSet(int(i), int(j))
		if s.wit != nil && !agree.IsEmpty() {
			s.wit[agree]++
		}
		if _, dup := s.seen[agree]; !dup {
			s.seen[agree] = struct{}{}
			*found = append(*found, agree)
			c.passNew += ncols - agree.Count()
		}
		c.pos++
	}
}

// samplePassParallel runs n pairs of the sweep through the worker pool:
// the position range is cut into chunks, each worker computes its chunk's
// agree masks (≤ 64 columns) or sets with the batched kernel into the
// chunk's private buffers and drops repeats within the chunk through its
// per-worker filter (a new generation per chunk, so worker identity
// cannot reach the uniq list), and the coordinator merges chunks in
// position order against the global seen table. A filter miss only adds
// an entry to uniq that the seen table then rejects, and a hit only
// elides a pair the sequential path would also have classified as a
// duplicate, so — merge order being sweep order — found order, capa
// accounting, and all statistics are bit-identical to the sequential
// path.
func (s *Sampler) samplePassParallel(c *clusterState, n, last int, found *[]fdset.AttrSet) int {
	chunk := (n + s.pool.Workers() - 1) / s.pool.Workers()
	if chunk < parallelChunkPairs {
		chunk = parallelChunkPairs
	}
	numChunks := (n + chunk - 1) / chunk
	for len(s.chunks) < numChunks {
		s.chunks = append(s.chunks, passChunk{})
	}
	for k := 0; k < numChunks; k++ {
		from := c.pos + k*chunk
		to := from + chunk
		if to > c.pos+n {
			to = c.pos + n
		}
		s.chunks[k].from, s.chunks[k].to = from, to
	}
	ncols := len(s.enc.Attrs)
	if s.word {
		if s.chunkWords == nil {
			s.chunkWords = make([]*maskFilter[uint64], s.pool.NumScratch())
		}
		s.pool.DoIndexed(numChunks, func(k, worker int) {
			ch := &s.chunks[k]
			m := ch.to - ch.from
			if cap(ch.words) < m {
				ch.words = make([]uint64, m)
			}
			ch.words = ch.words[:m]
			s.enc.AgreeWindowWords(c.rows, c.window, ch.from, ch.to, ch.words)
			local := s.chunkWords[worker]
			if local == nil {
				local = newMaskFilter[uint64](chunkBits)
				s.chunkWords[worker] = local
			} else {
				local.reset()
			}
			ch.uniq = ch.uniq[:0]
			for i := 0; i < m; i++ {
				w := ch.words[i]
				// Window sweeps over low-cardinality data produce long runs
				// of identical agree masks; a run is one filter probe, not m.
				if i > 0 && w == ch.words[i-1] {
					continue
				}
				if !local.seenOrAdd(w, w) {
					ch.uniq = append(ch.uniq, int32(i))
				}
			}
			if s.witW != nil {
				// Witness tallies count every pair, not just chunk-unique
				// masks, so they aggregate run-grouped into private scratch
				// regardless of the dedup above.
				ch.wkeys, ch.wadds = ch.wkeys[:0], ch.wadds[:0]
				for i := 0; i < m; {
					w := ch.words[i]
					j := i + 1
					for j < m && ch.words[j] == w {
						j++
					}
					if w != 0 {
						ch.wkeys = append(ch.wkeys, w)
						ch.wadds = append(ch.wadds, int32(j-i))
					}
					i = j
				}
			}
		})
		for k := 0; k < numChunks; k++ {
			ch := &s.chunks[k]
			for _, i := range ch.uniq {
				s.admitWord(c, ch.words[i], ncols, found)
			}
			if s.witW != nil {
				for x, w := range ch.wkeys {
					s.witW[w] += int64(ch.wadds[x])
				}
			}
		}
	} else {
		if s.chunkSets == nil {
			s.chunkSets = make([]*maskFilter[fdset.AttrSet], s.pool.NumScratch())
		}
		s.pool.DoIndexed(numChunks, func(k, worker int) {
			ch := &s.chunks[k]
			m := ch.to - ch.from
			if cap(ch.sets) < m {
				ch.sets = make([]fdset.AttrSet, m)
				ch.counts = make([]int32, m)
			}
			ch.sets, ch.counts = ch.sets[:m], ch.counts[:m]
			s.enc.AgreeWindowInto(c.rows, c.window, ch.from, ch.to, ch.sets, ch.counts)
			local := s.chunkSets[worker]
			if local == nil {
				local = newMaskFilter[fdset.AttrSet](chunkBits)
				s.chunkSets[worker] = local
			} else {
				local.reset()
			}
			ch.uniq = ch.uniq[:0]
			for i := 0; i < m; i++ {
				set := ch.sets[i]
				if i > 0 && set == ch.sets[i-1] {
					continue
				}
				if !local.seenOrAdd(set, set.Hash()) {
					ch.uniq = append(ch.uniq, int32(i))
				}
			}
			if s.wit != nil {
				ch.wsets, ch.wadds = ch.wsets[:0], ch.wadds[:0]
				for i := 0; i < m; {
					set := ch.sets[i]
					j := i + 1
					for j < m && ch.sets[j] == set {
						j++
					}
					if !set.IsEmpty() {
						ch.wsets = append(ch.wsets, set)
						ch.wadds = append(ch.wadds, int32(j-i))
					}
					i = j
				}
			}
		})
		for k := 0; k < numChunks; k++ {
			ch := &s.chunks[k]
			for _, i := range ch.uniq {
				set := ch.sets[i]
				if _, dup := s.seen[set]; !dup {
					s.seen[set] = struct{}{}
					*found = append(*found, set)
					c.passNew += ncols - int(ch.counts[i])
				}
			}
			if s.wit != nil {
				for x, set := range ch.wsets {
					s.wit[set] += int64(ch.wadds[x])
				}
			}
		}
	}
	c.passPairs += n
	c.pos += n
	s.PairsCompared += n
	if c.pos <= last {
		return n
	}
	s.finishPass(c)
	return n
}

// finishPass records the completed pass's capa and widens the window,
// shared by the sequential and parallel paths.
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
