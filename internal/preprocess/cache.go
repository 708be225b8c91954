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
