package cover

import (
	"math/bits"

	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
)

// PCover is the positive cover: for every RHS attribute, the tree of
// minimal FD-candidate LHSs that are consistent with every non-FD inverted
// so far. It starts from the most general candidates ∅ → A and is refined
// by Invert (Algorithm 3).
type PCover struct {
	trees  []*Tree
	ncols  int
	shards rhsShards // InvertAllPool's batch split
}

// NewPCover builds a positive cover over ncols attributes initialized with
// the most general candidate ∅ → A for every attribute A (Lines 1–2).
// rank orders split attributes as in NewTree (nil = natural order).
func NewPCover(ncols int, rank []int) *PCover {
	p := &PCover{trees: make([]*Tree, ncols), ncols: ncols}
	for i := range p.trees {
		p.trees[i] = NewTree(rank)
		p.trees[i].Add(fdset.EmptySet())
	}
	return p
}

// NumCols returns the number of attributes the cover spans.
func (p *PCover) NumCols() int { return p.ncols }

// Size returns the number of candidate FDs currently stored.
func (p *PCover) Size() int {
	n := 0
	for _, t := range p.trees {
		n += t.Size()
	}
	return n
}

// Invert removes every candidate invalidated by the non-FD (candidates
// whose LHS is a subset of the non-FD's LHS, by Lemma 1) and replaces each
// with its minimal specializations that escape the non-FD. It returns the
// number of candidates added, which feeds the GR_Pcover stopping criterion.
//
// This is Function invert of Algorithm 3 with the classical Fdep
// refinement: removed generalizations spawn only candidates
// general.lhs ∪ {attr} for attributes *outside* nonFD.lhs ∪ {rhs}.
// Algorithm 3 as printed also spawns attributes inside nonFD.lhs, whose
// offspring remain generalizations of the non-FD and are immediately
// re-found, removed, and re-expanded by the loop — converging to exactly
// the same cover (their eventual escapes are supersets of the direct
// escapes and fail the minimality check). Skipping them changes nothing
// in the output and removes the quadratic churn on FD-dense relations;
// BenchmarkAblationPaperInversion quantifies the gap.
//
// The removed generalizations and the blocker tables live in the tree's
// scratch and unlinked nodes are recycled, so on a warmed tree Invert
// allocates only the nodes the cover grows by.
//
//fdlint:hotpath
func (p *PCover) Invert(nonFD fdset.FD) int {
	t := p.trees[nonFD.RHS]
	// All invalidated generalizations come out in one traversal. Because
	// every replacement candidate contains an attribute outside the
	// non-FD's LHS, none of them is itself a generalization of the
	// non-FD, so a single removal pass suffices.
	t.generals = t.removeSubsetsInto(nonFD.LHS, t.generals[:0])
	added := 0
	for _, general := range t.generals {
		enumerated := t.blockerBases(general)
		for attr := 0; attr < p.ncols; attr++ {
			if attr == nonFD.RHS || nonFD.LHS.Has(attr) {
				continue
			}
			candidate := general.With(attr)
			if enumerated {
				if t.blockedByBases(attr) {
					continue
				}
			} else if t.ContainsSubsetWithAttr(candidate, attr) {
				continue
			}
			if t.Add(candidate) {
				added++
			}
		}
	}
	return added
}

// enumLimit bounds the generals whose blockers Invert enumerates against
// the membership table; larger generals search the tree instead.
const enumLimit = 6

// blockerMasks[k] lists the masks of the proper subsets of a k-element
// set in descending popcount. Any blocking subset of a candidate
// general ∪ {attr} must contain attr: the tree is an antichain, so proper
// subsets of general are not stored, and general itself was just
// removed. A blocker is therefore S ∪ {attr} with S ⊆ general — and S ≠
// general, since general ∪ {attr} differs from every other general's
// candidates and is not yet stored. On FD-dense covers an S one element
// smaller than general settles almost every blocked candidate, so probing
// the largest subsets first ends most blocked candidates within the first
// few probes.
var blockerMasks = func() (m [enumLimit + 1][]uint8) {
	for k := range m {
		for size := k - 1; size >= 0; size-- {
			for mask := 0; mask < 1<<k; mask++ {
				if bits.OnesCount(uint(mask)) == size {
					m[k] = append(m[k], uint8(mask))
				}
			}
		}
	}
	return m
}()

// blockerBases fills t.subsets with the proper subsets of general in
// blockerMasks order and reports true, or reports false when general has
// more than enumLimit attributes.
func (t *Tree) blockerBases(general fdset.AttrSet) bool {
	var attrs [enumLimit]int
	k := 0
	for a := general.First(); a >= 0; a = general.NextAfter(a) {
		if k == enumLimit {
			return false
		}
		attrs[k] = a
		k++
	}
	t.subsets = t.subsets[:0]
	for _, mask := range blockerMasks[k] {
		var sub fdset.AttrSet
		for b := 0; b < k; b++ {
			if mask&(1<<b) != 0 {
				sub.Add(attrs[b])
			}
		}
		t.subsets = append(t.subsets, sub)
	}
	return true
}

// blockedByBases reports whether some S ∪ {attr}, S in the table
// blockerBases filled, is stored.
func (t *Tree) blockedByBases(attr int) bool {
	for _, sub := range t.subsets {
		if t.Contains(sub.With(attr)) {
			return true
		}
	}
	return false
}

// InvertLiteral is Function invert of Algorithm 3 exactly as printed in
// the paper: removed generalizations spawn candidates for every attribute
// outside general.lhs ∪ {rhs}, including attributes still inside the
// non-FD's LHS (those offspring are re-found and removed by the loop).
// Kept for the inversion ablation; produces the same cover as Invert.
func (p *PCover) InvertLiteral(nonFD fdset.FD) int {
	t := p.trees[nonFD.RHS]
	added := 0
	for {
		general, ok := t.FindSubset(nonFD.LHS)
		if !ok {
			break
		}
		t.Remove(general)
		for attr := 0; attr < p.ncols; attr++ {
			if attr == nonFD.RHS || general.Has(attr) {
				continue
			}
			candidate := general.With(attr)
			if t.ContainsSubset(candidate) {
				continue
			}
			t.Add(candidate)
			added++
		}
	}
	return added
}

// InvertAll applies Invert over a batch of non-FDs and returns the total
// number of candidates added.
func (p *PCover) InvertAll(nonFDs []fdset.FD) int {
	added := 0
	for _, f := range nonFDs {
		added += p.Invert(f)
	}
	return added
}

// InvertAllPool is InvertAll sharded by RHS over a shared worker pool (nil
// pool = sequential). Per-shard added counts land in a private results
// slot, so no synchronization beyond the pool's own join is needed.
func (p *PCover) InvertAllPool(nonFDs []fdset.FD, pl *pool.Pool) int {
	if pl == nil {
		return p.InvertAll(nonFDs)
	}
	shards := p.shards.split(nonFDs, p.ncols)
	results := make([]int, len(shards))
	pl.Do(len(shards), func(k int) {
		n := 0
		for _, i := range shards[k] {
			n += p.Invert(nonFDs[i])
		}
		results[k] = n
	})
	added := 0
	for _, n := range results {
		added += n
	}
	return added
}

// Rebuild re-derives the per-RHS candidate tree from scratch: reset to
// the most general candidate ∅ and invert every given non-FD LHS. It is
// the retirement patch of incremental maintenance — when deletes retire
// non-FDs, inversion cannot run backwards (candidates destroyed by the
// retired set must reappear), so the affected RHS re-inverts from the
// patched negative cover while every other RHS tree is untouched. The
// result is independent of the order of nonFDs (the cover is determined
// by the set of inverted non-FDs), and touching only trees[rhs] makes
// Rebuild safe to run for distinct RHS values concurrently.
func (p *PCover) Rebuild(rhs int, nonFDs []fdset.AttrSet) {
	t := p.trees[rhs]
	t.reset()
	t.Add(fdset.EmptySet())
	for _, lhs := range nonFDs {
		p.Invert(fdset.FD{LHS: lhs, RHS: rhs})
	}
}

// FDs returns the candidate set as minimal, non-trivial FDs. Candidates
// whose LHS covers every other attribute are kept: a key is a valid LHS.
func (p *PCover) FDs() *fdset.Set {
	s := fdset.NewSet()
	for rhs, t := range p.trees {
		t.ForEach(func(lhs fdset.AttrSet) bool {
			s.Add(fdset.FD{LHS: lhs, RHS: rhs})
			return true
		})
	}
	return s
}

// Tree exposes the per-RHS candidate tree.
func (p *PCover) Tree(rhs int) *Tree { return p.trees[rhs] }
