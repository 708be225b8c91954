package cover

import (
	"sort"

	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
)

// NCover is the negative cover: for every RHS attribute, the tree of
// maximal non-FD LHSs observed so far. By Lemma 1 a non-FD X ↛ A implies
// Y ↛ A for every Y ⊂ X, so storing only maximal LHSs loses nothing while
// keeping the trees small (Algorithm 2).
type NCover struct {
	trees  []*Tree
	ncols  int
	size   int
	shards rhsShards // AddTrackedBatch's batch split
}

// NewNCover builds an empty negative cover over ncols attributes. rank
// orders split attributes in every per-RHS tree (nil = natural order).
func NewNCover(ncols int, rank []int) *NCover {
	n := &NCover{trees: make([]*Tree, ncols), ncols: ncols}
	for i := range n.trees {
		n.trees[i] = NewTree(rank)
	}
	return n
}

// NumCols returns the number of attributes the cover spans.
func (n *NCover) NumCols() int { return n.ncols }

// Size returns the number of stored maximal non-FDs.
func (n *NCover) Size() int { return n.size }

// Add inserts the non-FD into the cover. It reports whether the cover
// changed: false when an equal or specializing non-FD was already present.
// Generalizations of the new non-FD are discarded (Lines 2–5, Alg. 2).
func (n *NCover) Add(nonFD fdset.FD) bool {
	added, _ := n.AddTracked(nonFD)
	return added
}

// AddTracked is Add, additionally returning the LHSs of the stored
// non-FDs (same RHS) that the new entry superseded. EulerFD's double
// cycle uses this to drop superseded entries from its pending-inversion
// queue: inverting a generalization whose specialization is already known
// only creates candidates the specialization immediately destroys.
func (n *NCover) AddTracked(nonFD fdset.FD) (added bool, superseded []fdset.AttrSet) {
	t := n.trees[nonFD.RHS]
	if t.ContainsSuperset(nonFD.LHS) {
		return false, nil
	}
	superseded = t.RemoveSubsets(nonFD.LHS)
	t.Add(nonFD.LHS)
	n.size += 1 - len(superseded)
	return true, superseded
}

// AddEvent records one admission performed by AddTrackedBatch: the
// admitted non-FD and the stored LHSs (same RHS) it superseded.
type AddEvent struct {
	NonFD      fdset.FD
	Superseded []fdset.AttrSet
}

// AddTrackedBatch admits a batch of non-FDs, sharded by RHS across the
// worker pool: per-RHS trees are independent (the same property inversion
// exploits), so each shard is processed by exactly one worker with no
// locking. Events are reported grouped by ascending RHS and, within one
// RHS, in batch order — exactly the per-tree effect of sequential
// AddTracked calls — so the resulting cover, the admission count, and the
// event set are identical for every worker count, including the nil
// (sequential) pool.
func (n *NCover) AddTrackedBatch(nonFDs []fdset.FD, p *pool.Pool) (added int, events []AddEvent) {
	shards := n.shards.split(nonFDs, n.ncols)
	results := make([]admitResult, len(shards))
	p.Do(len(shards), func(k int) {
		n.admit(nonFDs, shards[k], &results[k])
	})
	for _, r := range results {
		added += len(r.events)
		n.size += r.sizeDelta
		events = append(events, r.events...)
	}
	return added, events
}

// admitResult is one shard's share of an AddTrackedBatch.
type admitResult struct {
	events    []AddEvent
	sizeDelta int
	// superseded backs every event's Superseded slice: one buffer per
	// shard instead of one allocation per admission.
	superseded []fdset.AttrSet
}

// admit is the shard body of AddTrackedBatch: sequential AddTracked over
// one RHS's non-FDs, nonFDs[i] for i in shard, recording events into r.
//
//fdlint:hotpath
func (n *NCover) admit(nonFDs []fdset.FD, shard []int32, r *admitResult) {
	for _, i := range shard {
		f := nonFDs[i]
		t := n.trees[f.RHS]
		if t.ContainsSuperset(f.LHS) {
			continue
		}
		from := len(r.superseded)
		r.superseded = t.removeSubsetsInto(f.LHS, r.superseded)
		t.Add(f.LHS)
		to := len(r.superseded)
		r.sizeDelta += 1 - (to - from)
		r.events = append(r.events, AddEvent{NonFD: f, Superseded: r.superseded[from:to:to]})
	}
}

// RemoveLHS removes the stored maximal non-FD lhs ↛ rhs, reporting
// whether it was present. Incremental maintenance calls it when the last
// witness of a maximal non-FD dies (core.Incremental delete/update): the
// set is no longer evidenced and must leave the cover before the affected
// region is re-inverted.
func (n *NCover) RemoveLHS(rhs int, lhs fdset.AttrSet) bool {
	if !n.trees[rhs].Remove(lhs) {
		return false
	}
	n.size--
	return true
}

// Readmit re-admits a still-witnessed non-FD after retirements freed its
// region: it is stored unless a stored superset already covers it. Unlike
// AddTracked it never removes subsets — callers admit candidates in
// descending cardinality, and a candidate that is a subset of a removed
// maximal set cannot strictly contain any surviving stored set (the cover
// is an antichain), so there is nothing to supersede.
func (n *NCover) Readmit(rhs int, lhs fdset.AttrSet) bool {
	t := n.trees[rhs]
	if t.ContainsSuperset(lhs) {
		return false
	}
	t.Add(lhs)
	n.size++
	return true
}

// AddAll inserts a batch of non-FDs sorted in decreasing LHS length (the
// order Algorithm 2 prescribes to minimize tree modifications) and returns
// the number that changed the cover.
func (n *NCover) AddAll(nonFDs []fdset.FD) int {
	sorted := append([]fdset.FD(nil), nonFDs...)
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].LHS.Count() > sorted[j].LHS.Count()
	})
	added := 0
	for _, f := range sorted {
		if n.Add(f) {
			added++
		}
	}
	return added
}

// Covers reports whether the non-FD is implied by the cover, i.e. whether
// some stored non-FD specializes it.
func (n *NCover) Covers(nonFD fdset.FD) bool {
	return n.trees[nonFD.RHS].ContainsSuperset(nonFD.LHS)
}

// Tree exposes the per-RHS tree, used by the inversion module.
func (n *NCover) Tree(rhs int) *Tree { return n.trees[rhs] }

// FDs enumerates the stored maximal non-FDs.
func (n *NCover) FDs() []fdset.FD {
	var out []fdset.FD
	for rhs, t := range n.trees {
		t.ForEach(func(s fdset.AttrSet) bool {
			out = append(out, fdset.FD{LHS: s, RHS: rhs})
			return true
		})
	}
	fdset.SortFDs(out)
	return out
}

// AttrFrequencyRank computes, from a sample of non-FDs, the split-priority
// permutation the paper prescribes: attributes are ranked by ascending
// frequency of appearance in non-FD LHSs, so rare attributes discriminate
// close to the root.
func AttrFrequencyRank(ncols int, nonFDs []fdset.FD) []int {
	freq := make([]int, ncols)
	for _, f := range nonFDs {
		f.LHS.ForEach(func(a int) bool {
			if a < ncols {
				freq[a]++
			}
			return true
		})
	}
	idx := make([]int, ncols)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return freq[idx[i]] < freq[idx[j]] })
	rank := make([]int, ncols)
	for pos, a := range idx {
		rank[a] = pos
	}
	return rank
}
