package afd

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Scorer evaluates candidate FDs over one encoded relation. Score,
// Discover and RedundantRows memoize partitions in a shared
// PartitionCache, so interleaved calls across measures and callers reuse
// each other's work; Rank derives its own on a prefix walk instead. The
// cache is concurrency-safe, and a Scorer performs no other shared
// writes, so one Scorer may serve concurrent requests (fdserve shares
// one per session).
type Scorer struct {
	enc   *preprocess.Encoded
	cache *preprocess.PartitionCache

	// attrPdep[a] is the unconditional pdep(a) = Σ_v p(v)², the τ
	// baseline. Computed eagerly for every attribute at construction so
	// concurrent Score calls only read it.
	attrPdep []float64

	// scratch hands out measure-kernel state to concurrent Score and Rank
	// calls. Scratches are reused, so steady-state scoring allocates
	// nothing per candidate; which goroutine gets which scratch never
	// influences a score (scratch carries no results across calls), so
	// determinism invariant I4 is untouched.
	scratch sync.Pool

	// scored counts scored candidates; atomic because a Scorer may serve
	// concurrent requests.
	scored atomic.Int64
}

// NewScorer builds a scorer over an encoded relation with a partition
// cache bounded to cacheSize entries (< 1 selects the cache default).
func NewScorer(enc *preprocess.Encoded, cacheSize int) *Scorer {
	s := &Scorer{
		enc:      enc,
		cache:    preprocess.NewPartitionCache(enc, cacheSize),
		attrPdep: make([]float64, len(enc.Attrs)),
	}
	s.scratch.New = func() any { return preprocess.NewMeasureScratch() }
	n := enc.NumRows
	for a := range enc.Attrs {
		if n == 0 {
			s.attrPdep[a] = 1
			continue
		}
		// Stripped π_a clusters rows by value; each of the n − covered
		// singleton rows is a value occurring once.
		var sqSum, covered int64
		for _, cluster := range enc.Partitions[a].Clusters {
			c := int64(len(cluster))
			sqSum += c * c
			covered += c
		}
		s.attrPdep[a] = float64(sqSum+(int64(n)-covered)) / (float64(n) * float64(n))
	}
	return s
}

// CacheStats reports the partition cache counters (hits, misses,
// neighbor derivations) as a consistent snapshot taken under the cache
// lock.
func (s *Scorer) CacheStats() (hits, misses, derived int) {
	return s.cache.Stats()
}

// Scored returns how many dependencies this scorer has evaluated. Rank
// counts only the candidates it scored, not those its bound skipped.
func (s *Scorer) Scored() int { return int(s.scored.Load()) }

// Score returns the error of lhs → rhs under measure m, in [0, 1] with 0
// meaning the dependency holds exactly. Trivial dependencies (rhs ∈ lhs)
// and empty relations score 0. m must be a valid Measure; Score panics
// on an unknown one (callers validate at the API boundary). Steady-state
// Score calls allocate nothing: the partition comes from the shared
// cache and the measure kernel runs on pooled scratch.
//
//fdlint:hotpath
func (s *Scorer) Score(m Measure, lhs fdset.AttrSet, rhs int) float64 {
	if !m.Valid() {
		panic(fmt.Sprintf("afd: Score called with invalid measure %q", string(m)))
	}
	mc, n, trivial := s.counts(lhs, rhs)
	if trivial {
		return 0
	}
	return s.measureFrom(m, mc, rhs, n)
}

// RedundantRows returns the raw redundancy numerator of lhs → rhs: the
// number of RHS cells derivable from their cluster's plurality value
// once violations are repaired (preprocess.MeasureCounts.RedundantRows).
// The quality subsystem annotates normalization advice with it; the
// Redundancy measure is its normalized, error-oriented form.
func (s *Scorer) RedundantRows(lhs fdset.AttrSet, rhs int) int {
	mc, _, trivial := s.counts(lhs, rhs)
	if trivial {
		return 0
	}
	return mc.RedundantRows()
}

// counts runs the fused measure kernel for one candidate: one partition
// lookup, one walk, every tally. trivial is true for rhs ∈ lhs and empty
// relations, which score 0 under every measure.
func (s *Scorer) counts(lhs fdset.AttrSet, rhs int) (mc preprocess.MeasureCounts, n int, trivial bool) {
	s.scored.Add(1)
	if lhs.Has(rhs) {
		return mc, 0, true
	}
	n = s.enc.NumRows
	if n == 0 {
		return mc, 0, true
	}
	part := s.cache.Get(lhs)
	sc := s.scratch.Get().(*preprocess.MeasureScratch)
	mc = s.enc.CountViolationsWith(part, rhs, sc)
	s.scratch.Put(sc)
	return mc, n, false
}

// measureFrom maps the fused tallies to one measure's error value.
func (s *Scorer) measureFrom(m Measure, mc preprocess.MeasureCounts, rhs, n int) float64 {
	switch m {
	case G3:
		return float64(mc.ViolatingRows) / float64(n)
	case G1:
		return float64(mc.ViolatingPairs) / (float64(n) * float64(n))
	case Pdep:
		return clamp01(1 - mc.PdepFrom(n))
	case Tau:
		base := s.attrPdep[rhs]
		if base >= 1 {
			// A constant RHS is determined by anything; τ's normalization
			// is undefined there, and error 0 is the sensible limit.
			return 0
		}
		return clamp01(1 - (mc.PdepFrom(n)-base)/(1-base))
	case Redundancy:
		if n <= 1 {
			// A 0- or 1-row relation holds no redundancy to explain.
			return 1
		}
		// red/(n−1) is the fraction of the maximum possible redundancy (a
		// constant column under a constant LHS explains n−1 cells). The
		// numerator is assembled in integers; one division keeps the low
		// bits order-independent (I8).
		return clamp01(1 - float64(mc.RedundantRows())/float64(n-1))
	}
	panic(fmt.Sprintf("afd: invalid measure %q", string(m)))
}

// errorFloor returns a lower bound on m's error for every candidate
// X → A whose LHS partition π_X refines part, bit for bit. Only
// Redundancy has one above 0: a cluster explains at most |c| − 1 of its
// RHS cells, so red(X → A) ≤ e(π_X) ≤ e(part) — refinement never raises
// the partition error — and measureFrom's correctly rounded division,
// subtraction and clamp01 are monotone. An exact FD scores 0 under g3,
// g1, pdep and τ, so their floor is 0, and so is every floor when n ≤ 1.
func errorFloor(m Measure, part preprocess.StrippedPartition, n int) float64 {
	if m != Redundancy || n <= 1 {
		return 0
	}
	return clamp01(1 - float64(part.Error())/float64(n-1))
}

// clamp01 pins float rounding residue back into [0, 1].
func clamp01(x float64) float64 { return math.Min(1, math.Max(0, x)) }

// Discover returns every minimal non-trivial dependency whose error
// under m is at most eps, each with its score, in canonical FD order.
// With eps = 0 and measure g3 or g1 this is exactly the minimal cover of
// the relation's exact FDs.
//
// The search walks the LHS lattice level-wise per RHS. Each candidate X
// is generated exactly once — from its parent X minus its largest
// attribute, extending only with attributes beyond that maximum — so no
// map iteration can reach the output order (I1). Pruning rests on m
// being anti-monotone: a node within budget is emitted and never
// extended (its supersets are non-minimal), and a generated node that
// contains an already-emitted LHS is dropped unscored. Cancellation is
// checked between lattice levels; a cancelled call returns ctx.Err().
func (s *Scorer) Discover(ctx context.Context, m Measure, eps float64) ([]fdset.ScoredFD, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("afd: invalid measure %q", string(m))
	}
	if !m.AntiMonotone() {
		return nil, fmt.Errorf("afd: measure %q is not anti-monotone; threshold discovery supports g3 and g1 (use top-k ranking for %s)", string(m), string(m))
	}
	if math.IsNaN(eps) || eps < 0 || eps > 1 {
		return nil, fmt.Errorf("afd: epsilon %v outside [0, 1]", eps)
	}
	ncols := len(s.enc.Attrs)
	var out []fdset.ScoredFD
	for rhs := 0; rhs < ncols; rhs++ {
		var emitted []fdset.AttrSet
		supersedes := func(x fdset.AttrSet) bool {
			for _, e := range emitted {
				if e.IsSubsetOf(x) {
					return true
				}
			}
			return false
		}
		level := []fdset.AttrSet{fdset.EmptySet()}
		for len(level) > 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			var next []fdset.AttrSet
			for _, x := range level {
				// A sibling emitted earlier in this level may have made x
				// non-minimal after x was generated; recheck before scoring.
				if supersedes(x) {
					continue
				}
				score := s.Score(m, x, rhs)
				if score <= eps {
					emitted = append(emitted, x)
					out = append(out, fdset.ScoredFD{FD: fdset.FD{LHS: x, RHS: rhs}, Score: score})
					continue
				}
				for b := x.Last() + 1; b < ncols; b++ {
					if b == rhs {
						continue
					}
					child := x.With(b)
					if supersedes(child) {
						continue
					}
					next = append(next, child)
				}
			}
			level = next
		}
	}
	fdset.SortScoredFDs(out)
	return out, nil
}

// Rank scores candidate dependencies under m and returns the k best
// (lowest error), ties broken by canonical FD order so the ranking is
// deterministic. Candidates are the seeds plus every one-attribute
// generalization of a seed — seeds come from EulerFD's positive cover,
// whose FDs are *minimal within the sampled evidence*, so the true best
// AFDs may sit one level below them; trivial candidates and duplicates
// are dropped. A bounded max-heap keeps memory at O(k) regardless of the
// candidate count.
//
// A partition depends only on the LHS, so Rank groups the candidates by
// LHS and visits the groups in a preorder walk of their prefix trie
// (prefixWalk): one refinement per trie node, every RHS of a group
// scored on the one partition. The walk bypasses the partition cache and
// follows PartitionOf's refinement path, so each candidate is scored on
// exactly enc.PartitionOf(lhs) and the ranking — float low bits of pdep
// and τ included — is a function of the snapshot, whatever the scorer
// answered before.
//
// The walk is a branch and bound. Once the heap holds k entries, every
// prefix partition the walk reuses or refines is checked against the
// heap root: when m's error floor on it (errorFloor) is strictly above
// the root's score, no candidate under that prefix can enter the top-k,
// and the walk skips every group whose attribute list starts with it —
// contiguous in lexicographic order — without refining. Skipped
// candidates are not scored and not counted by Scored. Cancellation is
// checked every 256 visited groups.
func (s *Scorer) Rank(ctx context.Context, m Measure, seeds []fdset.FD, k int) ([]fdset.ScoredFD, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("afd: invalid measure %q", string(m))
	}
	if k <= 0 {
		return nil, nil
	}
	groups := groupByLHS(seeds)
	walk := prefixWalk{enc: s.enc, sc: preprocess.NewJoinScratch()}
	sc := s.scratch.Get().(*preprocess.MeasureScratch)
	defer s.scratch.Put(sc)
	n := s.enc.NumRows
	h := &worstFirstHeap{}
	// hopeless reports that no candidate whose LHS partition refines part
	// can outrank the heap root. Strictly above keeps canonical
	// tie-breaking: a candidate tied with the root may still outrank it.
	hopeless := func(part preprocess.StrippedPartition) bool {
		return h.Len() == k && errorFloor(m, part, n) > (*h)[0].Score
	}
	for i, visited := 0, 0; i < len(groups); visited++ {
		if visited%256 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		g := groups[i]
		i++
		part, cut := walk.partition(g.attrs, hopeless)
		if cut > 0 {
			// The groups under a prefix are contiguous in lexicographic
			// order.
			for i < len(groups) && hasPrefix(groups[i].attrs, g.attrs[:cut]) {
				i++
			}
			continue
		}
		for rhs := g.rhs.First(); rhs >= 0; rhs = g.rhs.NextAfter(rhs) {
			s.scored.Add(1)
			sf := fdset.ScoredFD{FD: fdset.FD{LHS: g.lhs, RHS: rhs}}
			if n > 0 {
				sf.Score = s.measureFrom(m, s.enc.CountViolationsWith(part, rhs, sc), rhs, n)
			}
			if h.Len() < k {
				heap.Push(h, sf)
			} else if outranks(sf, (*h)[0]) {
				(*h)[0] = sf
				heap.Fix(h, 0)
			}
		}
	}
	out := make([]fdset.ScoredFD, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(fdset.ScoredFD)
	}
	return out, nil
}

// hasPrefix reports whether attrs starts with prefix.
func hasPrefix(attrs, prefix []int) bool {
	return len(attrs) >= len(prefix) && slices.Equal(attrs[:len(prefix)], prefix)
}

// lhsGroup is one distinct candidate LHS with every RHS Rank scores it
// against.
type lhsGroup struct {
	lhs   fdset.AttrSet
	attrs []int // lhs, ascending
	rhs   fdset.AttrSet
}

// groupByLHS builds Rank's candidate pool — every non-trivial seed plus
// each seed with one LHS attribute dropped, duplicates merged — as one
// group per distinct LHS, sorted lexicographically by attribute list.
func groupByLHS(seeds []fdset.FD) []lhsGroup {
	index := make(map[fdset.AttrSet]int, len(seeds))
	var groups []lhsGroup
	add := func(lhs fdset.AttrSet, rhs int) {
		if lhs.Has(rhs) {
			return
		}
		i, ok := index[lhs]
		if !ok {
			i = len(groups)
			index[lhs] = i
			groups = append(groups, lhsGroup{lhs: lhs})
		}
		groups[i].rhs = groups[i].rhs.With(rhs)
	}
	for _, f := range seeds {
		add(f.LHS, f.RHS)
		f.LHS.ForEach(func(a int) bool {
			add(f.LHS.Without(a), f.RHS)
			return true
		})
	}
	for i := range groups {
		groups[i].attrs = groups[i].lhs.Attrs()
	}
	slices.SortFunc(groups, func(a, b lhsGroup) int { return slices.Compare(a.attrs, b.attrs) })
	return groups
}

// prefixWalk serves the stripped partitions of a sequence of LHSs,
// reusing the partitions of shared prefixes. It keeps a stack holding
// the partition of every prefix of the last LHS; the next LHS pops to
// the longest prefix the two share and refines one attribute per new
// level. That is PartitionOfWith's path, so each partition equals
// enc.PartitionOf(lhs) cluster for cluster. Fed LHSs in lexicographic
// order, the walk refines once per node of their prefix trie.
type prefixWalk struct {
	enc   *preprocess.Encoded
	sc    *preprocess.JoinScratch
	attrs []int                          // the last LHS, ascending
	parts []preprocess.StrippedPartition // parts[i] is π of attrs[:i+1]
}

// partition returns π of the LHS whose ascending attribute list is
// attrs. On the way down it offers the partition of every non-empty
// prefix of attrs, reused or refined, shortest first, to hopeless. The
// first prefix attrs[:j] it rejects stops the walk there: partition
// returns cut = j instead of a partition, and the next LHS, which no
// longer shares that prefix, pops past it. cut = 0 means no prefix was
// rejected.
//
//fdlint:hotpath
func (w *prefixWalk) partition(attrs []int, hopeless func(preprocess.StrippedPartition) bool) (part preprocess.StrippedPartition, cut int) {
	if len(attrs) == 0 {
		return w.enc.PartitionOf(fdset.EmptySet()), 0
	}
	d := 0
	for d < len(w.attrs) && d < len(attrs) && w.attrs[d] == attrs[d] {
		d++
	}
	w.attrs, w.parts = w.attrs[:d], w.parts[:d]
	for j := range w.parts {
		if hopeless(w.parts[j]) {
			return preprocess.StrippedPartition{}, j + 1
		}
	}
	for ; d < len(attrs); d++ {
		a := attrs[d]
		p := w.enc.Partitions[a]
		if d > 0 {
			p = w.parts[d-1]
			// An empty parent stays empty; PartitionOfWith stops there too.
			if len(p.Clusters) > 0 {
				p = w.enc.RefineWith(p, a, w.sc)
			}
		}
		w.attrs = append(w.attrs, a)
		w.parts = append(w.parts, p)
		if hopeless(p) {
			return preprocess.StrippedPartition{}, d + 1
		}
	}
	return w.parts[len(attrs)-1], 0
}

// outranks reports whether a belongs strictly ahead of b in the ranking:
// lower error first, canonical FD order on ties.
func outranks(a, b fdset.ScoredFD) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return fdset.Less(a.FD, b.FD)
}

// worstFirstHeap is a max-heap by ranking order: the root is the entry
// that would fall out of the top-k first.
type worstFirstHeap []fdset.ScoredFD

func (h worstFirstHeap) Len() int           { return len(h) }
func (h worstFirstHeap) Less(i, j int) bool { return outranks(h[j], h[i]) }
func (h worstFirstHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *worstFirstHeap) Push(x any)        { *h = append(*h, x.(fdset.ScoredFD)) }
func (h *worstFirstHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
