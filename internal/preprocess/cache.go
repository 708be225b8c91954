package preprocess

import (
	"container/list"
	"sync"

	"eulerfd/internal/fdset"
)

// PartitionCache memoizes stripped partitions of attribute sets with LRU
// eviction. Lattice-walking algorithms (Dfd) probe partitions of sets
// that differ by single attributes; the cache derives a partition from a
// cached neighbor with one refinement step instead of |X| steps from
// scratch, which is the partition-reuse optimization of the original Dfd.
//
// The cache is safe for concurrent use: the AFD scorer (internal/afd)
// shares one instance between HTTP request handlers and exact algorithms.
// A single mutex covers the whole Get — including the refinement work —
// because entries and order must not be observed mid-eviction, and
// because a cached *StrippedPartition's Clusters are returned by
// reference: serializing Get is what guarantees no caller receives a
// partition while another mutates the structures around it. Callers must
// treat returned partitions as immutable (the same contract as
// Encoded.Partitions). Keys are fdset.AttrSet values, so the cache never
// aliases a caller's set (I2): mutating the lookup set afterwards cannot
// corrupt an entry.
type PartitionCache struct {
	enc *Encoded
	max int

	mu      sync.Mutex
	entries map[fdset.AttrSet]*list.Element // guarded by mu
	order   *list.List                      // front = most recent, guarded by mu
	// scratch is the join state every refinement under this cache
	// reuses; it is guarded by mu like everything else the refinement
	// work touches, so the probe table and group buffers are grown once
	// per cache, not rebuilt per derivation.
	scratch *JoinScratch

	// Stats, guarded by mu; read them only after concurrent Gets settle.
	Hits, Misses, Derived int
}

type cacheEntry struct {
	key  fdset.AttrSet
	part StrippedPartition
}

// NewPartitionCache builds a cache over an encoded relation holding at
// most max partitions (max < 1 means 256).
func NewPartitionCache(enc *Encoded, max int) *PartitionCache {
	if max < 1 {
		max = 256
	}
	return &PartitionCache{
		enc:     enc,
		max:     max,
		entries: make(map[fdset.AttrSet]*list.Element),
		order:   list.New(),
		scratch: NewJoinScratch(),
	}
}

// Get returns the stripped partition of x, computing and caching it if
// needed. Single-attribute partitions come straight from preprocessing
// and are not cached (they are already materialized). The returned
// partition is shared: callers must not mutate its clusters.
func (c *PartitionCache) Get(x fdset.AttrSet) StrippedPartition {
	switch x.Count() {
	case 0:
		return c.enc.PartitionOf(x)
	case 1:
		return c.enc.Partitions[x.First()]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[x]; ok {
		c.Hits++
		c.order.MoveToFront(el)
		return el.Value.(*cacheEntry).part
	}
	c.Misses++
	part, ok := c.deriveFromNeighbor(x)
	if !ok {
		part = c.enc.PartitionOfWith(x, c.scratch)
	}
	c.put(x, part)
	return part
}

// deriveFromNeighbor tries to build π_x with one refinement of a cached
// partition of x minus one attribute. Callers must hold c.mu.
//
//fdlint:mustlock mu
func (c *PartitionCache) deriveFromNeighbor(x fdset.AttrSet) (StrippedPartition, bool) {
	var derived StrippedPartition
	found := false
	x.ForEach(func(a int) bool {
		sub := x.Without(a)
		if sub.Count() == 1 {
			derived = c.enc.RefineWith(c.enc.Partitions[sub.First()], a, c.scratch)
			found = true
			return false
		}
		if el, ok := c.entries[sub]; ok {
			c.order.MoveToFront(el)
			derived = c.enc.RefineWith(el.Value.(*cacheEntry).part, a, c.scratch)
			found = true
			return false
		}
		return true
	})
	if found {
		c.Derived++
	}
	return derived, found
}

// put inserts an entry and evicts from the LRU tail. Callers must hold
// c.mu.
//
//fdlint:mustlock mu
func (c *PartitionCache) put(x fdset.AttrSet, part StrippedPartition) {
	c.entries[x] = c.order.PushFront(&cacheEntry{key: x, part: part})
	for len(c.entries) > c.max {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).key)
	}
}

// Len returns the number of cached partitions.
func (c *PartitionCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns the hit, miss, and neighbor-derivation counters under
// the cache lock. The counters still race with in-flight Gets in the
// sense that the snapshot is instantly stale; what the lock buys is a
// consistent triple.
func (c *PartitionCache) Stats() (hits, misses, derived int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Hits, c.Misses, c.Derived
}

// AdvancedTo returns a fresh cache over newEnc whose entries are patched
// from this cache's instead of recomputed — the incremental refresh of
// the per-session AFD scorer. Both encodings must carry RowIDs from the
// same Encoder (otherwise an empty cache is returned and entries rebuild
// lazily). changedIDs lists ids whose content was replaced between the
// snapshots; they are treated as delete + insert. Per entry the patch is
// O(||π|| + fresh·probe) instead of a full partition product: surviving
// rows remap in place, clusters shrunk below two rows are dropped, fresh
// rows (appends and changed ids) probe surviving clusters by their
// X-projection, and the rows left uncovered refine in one pass. The
// receiver is not modified, so requests scoring against the old snapshot
// keep a consistent cache; recency order carries over, counters restart.
func (c *PartitionCache) AdvancedTo(newEnc *Encoded, changedIDs []int64) *PartitionCache {
	next := NewPartitionCache(newEnc, c.max)
	c.mu.Lock()
	defer c.mu.Unlock()
	old, neu := c.enc.RowIDs, newEnc.RowIDs
	if old == nil || neu == nil {
		return next
	}
	changed := make(map[int64]struct{}, len(changedIDs))
	for _, id := range changedIDs {
		changed[id] = struct{}{}
	}
	// Merge-join the ascending id spines: surviving rows remap old → new
	// index, vanished ids are deletes, new or changed ids are fresh.
	remap := make([]int32, len(old))
	var fresh []int32
	i, j := 0, 0
	for i < len(old) && j < len(neu) {
		switch {
		case old[i] == neu[j]:
			if _, ch := changed[old[i]]; ch {
				remap[i] = -1
				fresh = append(fresh, int32(j))
			} else {
				remap[i] = int32(j)
			}
			i++
			j++
		case old[i] < neu[j]:
			remap[i] = -1
			i++
		default:
			fresh = append(fresh, int32(j))
			j++
		}
	}
	for ; i < len(old); i++ {
		remap[i] = -1
	}
	for ; j < len(neu); j++ {
		fresh = append(fresh, int32(j))
	}

	// covered is generation-stamped so per-entry resets are O(1). next is
	// still private to this call, but its lock is taken anyway so every
	// write to a cache's guarded fields is uniformly under its mutex.
	covered := make([]int32, newEnc.NumRows)
	gen := int32(0)
	next.mu.Lock()
	defer next.mu.Unlock()
	for el := c.order.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*cacheEntry)
		gen++
		attrs := ent.key.Attrs()
		part := patchPartition(ent.part, remap, newEnc, attrs, fresh, covered, gen, next.scratch)
		next.entries[ent.key] = next.order.PushBack(&cacheEntry{key: ent.key, part: part})
	}
	return next
}

// patchPartition rebuilds one cached stripped partition π_X against the
// new encoding: remap surviving rows (dropping clusters shrunk below two
// rows), attach fresh rows to surviving clusters whose X-projection they
// match, and refine whatever stays uncovered — which can only form new
// clusters around fresh rows, since two untouched rows that disagreed on
// X still disagree.
func patchPartition(p StrippedPartition, remap []int32, enc *Encoded, attrs []int, fresh []int32, covered []int32, gen int32, sc *JoinScratch) StrippedPartition {
	clusters := make([][]int32, 0, len(p.Clusters))
	for _, cl := range p.Clusters {
		nc := make([]int32, 0, len(cl))
		for _, r := range cl {
			if m := remap[r]; m >= 0 {
				nc = append(nc, m)
			}
		}
		if len(nc) >= 2 {
			clusters = append(clusters, nc)
		}
	}
	if len(fresh) == 0 {
		return NewStrippedPartition(clusters)
	}
	// Probe each fresh row against the surviving clusters' representatives
	// by projection hash, confirming with an exact label comparison.
	lanes := make([]Lane, len(attrs))
	for k, a := range attrs {
		lanes[k] = enc.Lane(a)
	}
	byProj := make(map[uint64][]int, len(clusters))
	for ci, cl := range clusters {
		h := projHash(lanes, cl[0])
		byProj[h] = append(byProj[h], ci)
	}
	for _, cl := range clusters {
		for _, r := range cl {
			covered[r] = gen
		}
	}
	anyUncovered := false
	for _, f := range fresh {
		h := projHash(lanes, f)
		joined := false
		for _, ci := range byProj[h] {
			if projEqual(lanes, clusters[ci][0], f) {
				clusters[ci] = append(clusters[ci], f)
				covered[f] = gen
				joined = true
				break
			}
		}
		if !joined {
			anyUncovered = true
		}
	}
	if anyUncovered {
		// Unmatched fresh rows can still cluster with each other or with
		// previously singleton rows: refine all uncovered rows by X in one
		// pass. Clusters of exclusively old rows cannot emerge (they would
		// have been a cluster already), so everything produced is new.
		uncovered := make([]int32, 0, len(fresh))
		for r := 0; r < len(covered); r++ {
			if covered[r] != gen {
				uncovered = append(uncovered, int32(r))
			}
		}
		if len(uncovered) >= 2 {
			part := NewStrippedPartition([][]int32{uncovered})
			for _, a := range attrs {
				part = enc.RefineWith(part, a, sc)
			}
			clusters = append(clusters, part.Clusters...)
		}
	}
	return NewStrippedPartition(clusters)
}

// projHash hashes row r's projection onto the lanes' columns (FNV-1a
// over labels).
func projHash(lanes []Lane, r int32) uint64 {
	h := uint64(1469598103934665603)
	for _, l := range lanes {
		h ^= uint64(uint32(l.At(r)))
		h *= 1099511628211
	}
	return h
}

// projEqual reports whether rows a and b agree on every lane's column.
func projEqual(lanes []Lane, a, b int32) bool {
	for _, l := range lanes {
		if l.At(a) != l.At(b) {
			return false
		}
	}
	return true
}
