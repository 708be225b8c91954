// Package preprocess implements EulerFD's preprocessing module (Section
// IV-B of the paper): raw string-valued relations are converted into
// numeric label matrices organized in partitions (Definition 6) and
// stripped partitions (Definition 7).
//
// All discovery algorithms in this repository — EulerFD, AID-FD, TANE,
// Fdep, HyFD — operate on the Encoded form, never on raw values.
//
// The batched kernels in this file (AgreeRowWords, AgreeWindowWords,
// ProductWith, RefineWith) are the hot paths of the whole system; see
// DESIGN.md "Hot paths & memory discipline" for the scratch-buffer
// ownership rules that keep their steady state allocation-free.
package preprocess

import (
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
)

// Encoded is a relation after label encoding. Labels are dense per column:
// for column c, labels range over [0, NumLabels[c]) and two rows share a
// label exactly when they share the original cell value. Labels of different
// columns are independent (they may repeat across columns).
//
// Rows are stored row-major in one []uint64 of packed label lanes (see
// packedRows): a row is a few contiguous words, so comparing a tuple pair
// — the hot loop of every induction algorithm — loads two short runs of
// one flat array and computes the agree mask a word of lanes at a time.
// Single labels are read through Lane.
type Encoded struct {
	Name    string
	Attrs   []string
	NumRows int
	rows    packedRows
	// NumLabels[c] is the number of distinct values in column c.
	NumLabels []int
	// Partitions[c] is the stripped partition of column c.
	Partitions []StrippedPartition
	// RowIDs, when non-nil, maps row index to the stable external row id
	// assigned by the Encoder that produced this snapshot, in strictly
	// ascending order; violation reports name rows by it. One-shot Encode
	// leaves it nil.
	RowIDs []int64
}

// Lane returns the accessor of column c's labels.
func (e *Encoded) Lane(c int) Lane { return e.rows.lane(c) }

// StrippedPartition is a partition with singleton equivalence classes
// removed (Definition 7). Each cluster lists row indices sharing a value.
// Partitions produced by this package carry their row total computed at
// construction, so Sum and Error are O(1); a zero-value or literal
// partition still answers correctly by walking its clusters once.
type StrippedPartition struct {
	Clusters [][]int32
	sum      int // Σ|cluster|, cached at construction; 0 = not cached
}

// NewStrippedPartition wraps clusters in a partition with the row total
// precomputed. All partitions built by this package go through it.
func NewStrippedPartition(clusters [][]int32) StrippedPartition {
	n := 0
	for _, c := range clusters {
		n += len(c)
	}
	return StrippedPartition{Clusters: clusters, sum: n}
}

// NumClusters returns the number of (non-singleton) clusters.
func (p StrippedPartition) NumClusters() int { return len(p.Clusters) }

// Sum returns the total number of rows covered by clusters. For
// partitions built by this package the total is cached at construction;
// a partition assembled as a raw struct literal (tests) pays one walk
// per call. Clusters are non-singleton, so a non-empty partition always
// has a positive total and the zero sentinel is unambiguous.
func (p StrippedPartition) Sum() int {
	if p.sum > 0 || len(p.Clusters) == 0 {
		return p.sum
	}
	n := 0
	for _, c := range p.Clusters {
		n += len(c)
	}
	return n
}

// Error returns e(π) = ||π|| − |π|, the TANE partition error: the number of
// rows that would need to be removed to make every covered value unique.
func (p StrippedPartition) Error() int { return p.Sum() - p.NumClusters() }

// Encode label-encodes a relation. Empty strings (nulls) are treated as a
// single shared value, i.e. NULL = NULL.
func Encode(r *dataset.Relation) *Encoded {
	nRows, nCols := r.NumRows(), r.NumCols()
	e := &Encoded{
		Name:      r.Name,
		Attrs:     r.Attrs,
		NumRows:   nRows,
		NumLabels: make([]int, nCols),
	}
	e.rows = newPackedRows(nCols, lanes8)
	e.rows.words = make([]uint64, nRows*e.rows.stride)
	for c := 0; c < nCols; c++ {
		dict := make(map[string]int32)
		for i := 0; i < nRows; i++ {
			v := r.Rows[i][c]
			label, ok := dict[v]
			if !ok {
				label = int32(len(dict))
				dict[v] = label
				e.rows.widen(nRows, len(dict))
			}
			e.rows.put(i, c, label)
		}
		e.NumLabels[c] = len(dict)
	}
	e.buildPartitions()
	return e
}

// buildPartitions derives every column's stripped partition from the
// packed rows.
func (e *Encoded) buildPartitions() {
	e.Partitions = make([]StrippedPartition, len(e.Attrs))
	for c := range e.Partitions {
		e.Partitions[c] = e.columnPartition(c)
	}
}

// columnPartition builds the stripped partition of column c from labels.
func (e *Encoded) columnPartition(c int) StrippedPartition {
	groups := make([][]int32, e.NumLabels[c])
	lane := e.Lane(c)
	for i := int32(0); i < int32(e.NumRows); i++ {
		l := lane.At(i)
		groups[l] = append(groups[l], i)
	}
	clusters := groups[:0]
	for _, g := range groups {
		if len(g) > 1 {
			clusters = append(clusters, g)
		}
	}
	// Clone the retained slice header region to keep capacity tight.
	out := make([][]int32, len(clusters))
	copy(out, clusters)
	return NewStrippedPartition(out)
}

// AgreeSet returns the set of attributes on which rows i and j share values,
// i.e. the LHS of every non-FD the pair witnesses (Section IV-C).
func (e *Encoded) AgreeSet(i, j int) fdset.AttrSet {
	return e.rows.agreeSet(e.rows.row(i), e.rows.row(j))
}

// AgreeRowWords is the batched form of AgreeSet: for every row o in
// others it writes the agree set of (base, o) as mw = MaskWords(len(Attrs))
// mask words into masks[k·mw:]. It serves every discoverer that compares
// one row against many (cover.AllAgreeSets) or draws single pairs.
// masks must have length ≥ len(others)·mw. It performs no allocation.
//
//fdlint:hotpath
func (e *Encoded) AgreeRowWords(base int, others []int32, masks []uint64) {
	e.rows.agreeRow(e.rows.row(base), others, masks)
}

// AgreeWindowWords is the sliding-window kernel of the sampler: for
// every position p in [from, to) it writes the agree set of the pair
// (rows[p], rows[p+window-1]) as mw = MaskWords(len(Attrs)) mask words
// into masks[(p−from)·mw:]. Emitting raw mask words instead of AttrSets
// keeps the inner loop free of 48-byte stores and lets the caller
// deduplicate on machine words. masks must have length ≥ (to−from)·mw.
// It performs no allocation.
//
//fdlint:hotpath
func (e *Encoded) AgreeWindowWords(rows []int32, window, from, to int, masks []uint64) {
	// The row layout's fields are copied to locals: the compiler cannot
	// tell that stores to masks leave them unchanged, and would reload
	// them for every pair.
	all, stride, tail, last := e.rows.words, e.rows.stride, e.rows.tail, e.rows.lastMask
	lo, gather, top, down := e.rows.f.lo, e.rows.f.gather, e.rows.f.top, e.rows.f.down
	blk := int(e.rows.f.width) // packed words per full mask word
	far := rows[from+window-1 : to+window-1]
	o := 0
	for k, r := range rows[from:to] {
		a := all[int(r)*stride : int(r)*stride+stride]
		b := all[int(far[k])*stride : int(far[k])*stride+stride]
		for len(a) > blk { // a full mask word: 64 lanes, no tail
			masks[o] = agreeLanes(a[:blk], b, lo, gather, top, down)
			a, b = a[blk:], b[blk:]
			o++
		}
		masks[o] = agreeLanes(a, b, lo, gather, top, down) >> tail & last
		o++
	}
}

// Cluster is one equivalence class of a single-attribute stripped
// partition, tagged with its attribute; the unit of work of EulerFD's
// sampling module.
type Cluster struct {
	Attr int
	Rows []int32
}

// AllClusters returns every cluster of every attribute's stripped
// partition, the initial population of the sampling MLFQ.
func (e *Encoded) AllClusters() []Cluster {
	var out []Cluster
	for c := range e.Partitions {
		for _, rows := range e.Partitions[c].Clusters {
			out = append(out, Cluster{Attr: c, Rows: rows})
		}
	}
	return out
}

// JoinScratch is the reusable state of the partition-join kernels
// (ProductWith, RefineWith, PartitionOfWith). One scratch serves any
// number of sequential joins over the same relation; buffers grow to the
// high-water mark once and are then reused, so steady-state joins
// allocate only their retained output. A scratch must not be shared
// between concurrent joins — each caller owns one (PartitionCache guards
// its scratch with the cache mutex; TANE's traversal owns one per run).
//
// Invariants between calls: probe[r] == -1 for every row r, and
// slot[g] == -1 for every group g. Both are restored by sparse resets —
// only the entries a join actually touched are cleared, which is what
// makes the join O(||p|| + ||q||) instead of O(numRows).
type JoinScratch struct {
	probe []int32 // row → group id of the refining operand, -1 = singleton there
	slot  []int32 // group id → index into order/cnt for the current parent cluster
	order []int32 // group ids of the current parent cluster, first-occurrence order
	cnt   []int32 // rows per group, parallel to order
	off   []int32 // scatter cursor per group, parallel to order
	flat  []int32 // row accumulation across the whole join
	ends  []int32 // cluster end offsets into flat
}

// NewJoinScratch returns an empty scratch; buffers are grown on first
// use.
func NewJoinScratch() *JoinScratch {
	return &JoinScratch{}
}

// ensureProbe grows probe to cover numRows rows, keeping the all--1
// between-calls invariant for the new region.
func (sc *JoinScratch) ensureProbe(numRows int) {
	if len(sc.probe) >= numRows {
		return
	}
	old := len(sc.probe)
	grown := make([]int32, numRows)
	copy(grown, sc.probe)
	for i := old; i < numRows; i++ {
		grown[i] = -1
	}
	sc.probe = grown
}

// ensureSlots grows slot to cover numGroups group ids, keeping the
// all--1 between-calls invariant for the new region.
func (sc *JoinScratch) ensureSlots(numGroups int) {
	if len(sc.slot) >= numGroups {
		return
	}
	old := len(sc.slot)
	grown := make([]int32, numGroups)
	copy(grown, sc.slot)
	for i := old; i < numGroups; i++ {
		grown[i] = -1
	}
	sc.slot = grown
}

// joinClusters splits every cluster of p by probe[row], the dense group
// id of the row in the refining operand (-1 drops the row), emitting
// sub-clusters of size ≥ 2 in first-occurrence order of their group
// within each parent cluster — never in hash order — so the output is a
// pure function of the operands (determinism invariant I1). The returned
// partition owns exactly-sized fresh storage; everything transient lives
// in sc.
func joinClusters(sc *JoinScratch, p StrippedPartition, probe []int32) StrippedPartition {
	if cap(sc.flat) < p.Sum() {
		sc.flat = make([]int32, 0, p.Sum())
	}
	sc.flat = sc.flat[:0]
	sc.ends = sc.ends[:0]
	for _, cluster := range p.Clusters {
		sc.order = sc.order[:0]
		sc.cnt = sc.cnt[:0]
		// Pass 1: group sizes in first-occurrence order.
		for _, r := range cluster {
			g := probe[r]
			if g < 0 {
				continue
			}
			s := sc.slot[g]
			if s < 0 {
				s = int32(len(sc.order))
				sc.slot[g] = s
				sc.order = append(sc.order, g)
				sc.cnt = append(sc.cnt, 0)
			}
			sc.cnt[s]++
		}
		// Lay out the retained (size ≥ 2) groups contiguously in flat.
		sc.off = sc.off[:0]
		base := int32(len(sc.flat))
		for s := range sc.order {
			sc.off = append(sc.off, base)
			if sc.cnt[s] > 1 {
				base += sc.cnt[s]
			}
		}
		sc.flat = sc.flat[:int(base)]
		// Pass 2: scatter rows into their group's range, preserving row
		// order within each sub-cluster.
		for _, r := range cluster {
			g := probe[r]
			if g < 0 {
				continue
			}
			s := sc.slot[g]
			if sc.cnt[s] < 2 {
				continue
			}
			sc.flat[sc.off[s]] = r
			sc.off[s]++
		}
		for s, g := range sc.order {
			sc.slot[g] = -1 // restore the between-calls invariant
			if sc.cnt[s] > 1 {
				sc.ends = append(sc.ends, sc.off[s])
			}
		}
	}
	// Materialize the exactly-sized result; sc.flat stays owned by the
	// scratch for the next join.
	rows := make([]int32, len(sc.flat))
	copy(rows, sc.flat)
	clusters := make([][]int32, len(sc.ends))
	start := int32(0)
	for i, end := range sc.ends {
		clusters[i] = rows[start:end:end]
		start = end
	}
	return StrippedPartition{Clusters: clusters, sum: len(rows)}
}

// RefineWith splits every cluster of p by the labels of attribute a,
// dropping resulting singletons — the partition product π_p · π_a
// specialised to a single-attribute refiner — reusing sc for all
// transient state. Labels of a are dense in [0, NumLabels[a]), so they
// serve as group ids directly: no hashing, no per-cluster map. Each row
// of p reads its lane once into the probe table, which the join then
// consults twice per row, and which is reset sparsely afterwards.
//
//fdlint:hotpath
func (e *Encoded) RefineWith(p StrippedPartition, a int, sc *JoinScratch) StrippedPartition {
	sc.ensureProbe(e.NumRows)
	sc.ensureSlots(e.NumLabels[a])
	probe, lane := sc.probe, e.Lane(a)
	for _, cluster := range p.Clusters {
		for _, r := range cluster {
			probe[r] = lane.At(r)
		}
	}
	out := joinClusters(sc, p, probe)
	for _, cluster := range p.Clusters {
		for _, r := range cluster {
			probe[r] = -1
		}
	}
	return out
}

// Refine is RefineWith with a transient scratch, for callers outside a
// join-heavy loop.
func (e *Encoded) Refine(p StrippedPartition, a int) StrippedPartition {
	return e.RefineWith(p, a, NewJoinScratch())
}

// ProductWith computes the stripped-partition product p · q — rows share
// a product cluster iff they share a cluster in both operands — as a
// hash join over cluster row ids: q's clusters are scattered into a
// probe table once (O(||q||), not O(numRows)), p's clusters are joined
// against it, and the probe entries are sparsely reset afterwards. All
// transient state lives in sc and is grown once; steady-state products
// allocate only their retained output.
//
//fdlint:hotpath
func ProductWith(p, q StrippedPartition, numRows int, sc *JoinScratch) StrippedPartition {
	sc.ensureProbe(numRows)
	sc.ensureSlots(len(q.Clusters))
	probe := sc.probe
	for id, cluster := range q.Clusters {
		for _, r := range cluster {
			probe[r] = int32(id)
		}
	}
	out := joinClusters(sc, p, probe)
	for _, cluster := range q.Clusters {
		for _, r := range cluster {
			probe[r] = -1
		}
	}
	return out
}

// Product is ProductWith with a transient scratch, for callers outside a
// join-heavy loop.
func Product(p, q StrippedPartition, numRows int) StrippedPartition {
	return ProductWith(p, q, numRows, NewJoinScratch())
}

// PartitionOf computes the stripped partition of an arbitrary attribute
// set by iterated refinement, used by validators and the TANE baseline.
// The empty set yields one cluster with all rows (or none if NumRows < 2).
func (e *Encoded) PartitionOf(x fdset.AttrSet) StrippedPartition {
	return e.PartitionOfWith(x, NewJoinScratch())
}

// PartitionOfWith is PartitionOf reusing a caller-owned join scratch.
//
//fdlint:hotpath
func (e *Encoded) PartitionOfWith(x fdset.AttrSet, sc *JoinScratch) StrippedPartition {
	attrs := x.Attrs()
	if len(attrs) == 0 {
		if e.NumRows < 2 {
			return StrippedPartition{}
		}
		all := make([]int32, e.NumRows)
		for i := range all {
			all[i] = int32(i)
		}
		return NewStrippedPartition([][]int32{all})
	}
	p := e.Partitions[attrs[0]]
	for _, a := range attrs[1:] {
		p = e.RefineWith(p, a, sc)
		if len(p.Clusters) == 0 {
			break
		}
	}
	return p
}

// Holds reports whether the FD x → a is valid on the encoded relation:
// every cluster of π_x is constant on a.
func (e *Encoded) Holds(x fdset.AttrSet, a int) bool {
	return e.ConstantOn(e.PartitionOf(x), a)
}

// ConstantOn reports whether every cluster of part is constant on
// attribute a — the validity check X → a given π_X.
func (e *Encoded) ConstantOn(part StrippedPartition, a int) bool {
	_, _, violated := e.ViolatingPair(part, a)
	return !violated
}

// ViolatingPair returns the first row pair, in cluster order, that shares
// a cluster of part = π_X but differs on attribute a — a witness that
// X → a fails — or ok = false when every cluster is constant on a.
// Validation-driven algorithms (HyFD) feed the witness back into the
// negative cover.
func (e *Encoded) ViolatingPair(part StrippedPartition, a int) (i, j int32, ok bool) {
	lane := e.Lane(a)
	for _, cluster := range part.Clusters {
		want := lane.At(cluster[0])
		for _, r := range cluster[1:] {
			if lane.At(r) != want {
				return cluster[0], r, true
			}
		}
	}
	return 0, 0, false
}
