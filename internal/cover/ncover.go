package cover

import (
	"slices"
	"sort"

	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
)

// NCover is the negative cover: for every RHS attribute, the tree of
// maximal non-FD LHSs observed so far. By Lemma 1 a non-FD X ↛ A implies
// Y ↛ A for every Y ⊂ X, so storing only maximal LHSs loses nothing while
// keeping the trees small (Algorithm 2).
//
// The cover also holds the double cycle's pending-inversion set: Admit
// and Seed mark each set they store pending on its leaf, until
// PCover.InvertPending takes it. A pending set that a later admission
// supersedes leaves the cover with its leaf and is never inverted:
// inverting a generalization whose specialization is already known only
// creates candidates the specialization immediately destroys.
type NCover struct {
	trees []*Tree
	ncols int
}

// NewNCover builds an empty negative cover over ncols attributes. rank
// orders split attributes in every per-RHS tree (nil = natural order).
func NewNCover(ncols int, rank []int) *NCover {
	n := &NCover{trees: make([]*Tree, ncols), ncols: ncols}
	for i := range n.trees {
		n.trees[i] = NewTree(ncols, rank)
	}
	return n
}

// NumCols returns the number of attributes the cover spans.
func (n *NCover) NumCols() int { return n.ncols }

// Size returns the number of stored maximal non-FDs.
func (n *NCover) Size() int {
	size := 0
	for _, t := range n.trees {
		size += t.Size()
	}
	return size
}

// Add inserts the non-FD into the cover. It reports whether the cover
// changed: false when an equal or specializing non-FD was already present.
// Generalizations of the new non-FD are discarded (Lines 2–5, Alg. 2).
// The stored set is not marked pending.
func (n *NCover) Add(nonFD fdset.FD) bool {
	t := n.trees[nonFD.RHS]
	t.mustFit(nonFD.LHS)
	var buf [fdset.NumWords]uint64
	return t.admit(t.words(&buf, nonFD.LHS)) != 0
}

// admit is Add on a set of mw words, returning the new leaf or 0.
//
//fdlint:hotpath
func (t *Tree) admit(s []uint64) int32 {
	if t.containsSuperset(t.root, s) {
		return 0
	}
	t.removed = t.removeSubsetsInto(s, t.removed[:0])
	return t.insert(s)
}

// Admit admits one sampling drain's agree sets: agree set X witnesses
// X ↛ a for every attribute a ∉ X. The tree of each RHS a admits, in
// batch order, the agree sets that lack a and marks each one it stores
// pending: the per-tree effect of adding the drain's non-FDs one at a
// time. The trees are independent, so the pool runs one task per RHS
// with no locking, and the cover, the marks and the count are the same
// for every worker count, the nil (sequential) pool included. It returns
// the number of non-FDs that changed the cover, GR_Ncover's numerator.
func (n *NCover) Admit(agrees []fdset.AttrSet, p *pool.Pool) int {
	if len(agrees) == 0 || n.ncols == 0 {
		return 0
	}
	// The batch at the trees' width, mw words per agree set, converted
	// once and read by every task.
	t0 := n.trees[0]
	flat := make([]uint64, 0, t0.mw*len(agrees))
	var buf [fdset.NumWords]uint64
	for _, x := range agrees {
		t0.mustFit(x)
		flat = append(flat, t0.words(&buf, x)...)
	}
	added := make([]int, n.ncols)
	p.Do(n.ncols, func(rhs int) {
		added[rhs] = n.trees[rhs].admitAll(flat, rhs)
	})
	total := 0
	for _, a := range added {
		total += a
	}
	return total
}

// admitAll admits into the tree of rhs, in order, every set of flat (mw
// words apiece) that lacks rhs, marking each one it stores pending, and
// returns how many it stored.
//
//fdlint:hotpath
func (t *Tree) admitAll(flat []uint64, rhs int) int {
	added := 0
	for o := 0; o < len(flat); o += t.mw {
		s := flat[o : o+t.mw]
		if has(s, rhs) {
			continue
		}
		if leaf := t.admit(s); leaf != 0 {
			t.markPending(leaf)
			added++
		}
	}
	return added
}

// NCoverOf returns the negative cover of every pair of a relation, given
// its distinct agree sets (AllAgreeSets): the tree of each RHS a holds
// the ⊆-maximal sets of agrees that lack a, each marked pending. It
// admits a copy of agrees sorted largest first, which supersedes
// nothing, so agrees keeps its order.
func NCoverOf(ncols int, rank []int, agrees []fdset.AttrSet) *NCover {
	n := NewNCover(ncols, rank)
	sorted := slices.Clone(agrees)
	fdset.SortSetsDesc(sorted)
	n.Admit(sorted, nil)
	return n
}

// Maximal returns the sets of agrees that the tree of rhs stores, in
// their order in agrees. On the cover NCoverOf built from agrees, these
// are the ⊆-maximal agree sets that lack rhs.
func (n *NCover) Maximal(rhs int, agrees []fdset.AttrSet) []fdset.AttrSet {
	t := n.trees[rhs]
	var out []fdset.AttrSet
	for _, a := range agrees {
		if t.Contains(a) {
			out = append(out, a)
		}
	}
	return out
}

// Seed admits ∅ ↛ rhs and marks it pending, reporting whether the cover
// changed: ∅ is stored only into an empty tree. Discovery seeds every
// non-constant column, because sampling pairs only rows that agree
// somewhere and so never witnesses the empty agree set.
func (n *NCover) Seed(rhs int) bool {
	t := n.trees[rhs]
	var empty [fdset.NumWords]uint64
	leaf := t.admit(empty[:t.mw])
	if leaf != 0 {
		t.markPending(leaf)
	}
	return leaf != 0
}

// RemoveLHS removes the stored maximal non-FD lhs ↛ rhs, reporting
// whether it was present. Incremental maintenance calls it when the last
// witness of a maximal non-FD dies (core.Incremental delete/update): the
// set is no longer evidenced and must leave the cover before the affected
// region is re-inverted.
func (n *NCover) RemoveLHS(rhs int, lhs fdset.AttrSet) bool {
	return n.trees[rhs].Remove(lhs)
}

// Readmit re-admits a still-witnessed non-FD after retirements freed its
// region: it is stored unless a stored superset already covers it. Unlike
// Add it never removes subsets — callers admit candidates in descending
// cardinality, and a candidate that is a subset of a removed maximal set
// cannot strictly contain any surviving stored set (the cover is an
// antichain), so there is nothing to supersede. It never marks the set
// pending: a re-admitted set is a subset of one already inverted.
func (n *NCover) Readmit(rhs int, lhs fdset.AttrSet) bool {
	t := n.trees[rhs]
	return !t.ContainsSuperset(lhs) && t.Add(lhs)
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

// AgreeSetRank computes, from a sample of agree sets, the split-priority
// permutation the paper prescribes: attributes are ranked by ascending
// frequency of appearance in the LHSs of the non-FDs the sample
// witnesses, ties in attribute order, so rare attributes discriminate
// close to the root. Agree set X witnesses the ncols − |X| non-FDs
// X ↛ a, a ∉ X, so each attribute of X counts that many times and no
// non-FD is expanded.
func AgreeSetRank(ncols int, agrees []fdset.AttrSet) []int {
	freq := make([]int, ncols)
	for _, x := range agrees {
		witnessed := ncols - x.Count()
		x.ForEach(func(a int) bool {
			if a < ncols {
				freq[a] += witnessed
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
