package cover

import (
	"math/bits"
	"slices"

	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
	"eulerfd/internal/preprocess"
)

// PCover is the positive cover: for every RHS attribute, the tree of
// minimal FD-candidate LHSs that are consistent with every non-FD inverted
// so far. It starts from the most general candidates ∅ → A and is refined
// by Invert (Algorithm 3).
type PCover struct {
	trees []*Tree
	ncols int
	// runs holds each RHS's candidate LHSs as of the last FDs call, mw
	// words apiece in CompareMasks order: the read-out that FDs brings
	// up to date from each tree's log.
	runs [][]uint64
	// leaves and order are FDs' scratch: the sets of a tree read out in
	// full, and the offsets of the sets to merge into a run, sorted.
	leaves []uint64
	order  []int32
}

// NewPCover builds a positive cover over ncols attributes initialized with
// the most general candidate ∅ → A for every attribute A (Lines 1–2).
// rank orders split attributes as in NewTree (nil = natural order).
func NewPCover(ncols int, rank []int) *PCover {
	p := &PCover{trees: make([]*Tree, ncols), ncols: ncols}
	for i := range p.trees {
		p.trees[i] = NewTree(ncols, rank)
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
	var buf [fdset.NumWords]uint64
	return t.invert(t.words(&buf, nonFD.LHS), nonFD.RHS, p.ncols)
}

// invert is Invert on tree t, the candidate tree of rhs over ncols
// attributes, for the non-FD lhs ↛ rhs.
func (t *Tree) invert(lhs []uint64, rhs, ncols int) int {
	// All invalidated generalizations come out in one traversal. Because
	// every replacement candidate contains an attribute outside the
	// non-FD's LHS, none of them is itself a generalization of the
	// non-FD, so a single removal pass suffices.
	t.removed = t.removeSubsetsInto(lhs, t.removed[:0])
	added := 0
	for g := 0; g < len(t.removed); g += t.mw {
		general := t.removed[g : g+t.mw]
		enumerated := t.blockerBases(general)
		for attr := 0; attr < ncols; attr++ {
			if attr == rhs || has(lhs, attr) {
				continue
			}
			candidate := t.cand
			copy(candidate, general)
			candidate[attr>>6] |= 1 << (attr & 63)
			if enumerated {
				if t.blockedByBases(attr) {
					continue
				}
			} else if t.findSubsetWith(t.root, candidate, attr) {
				continue
			}
			if t.add(candidate) {
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

// blockerBases fills t.subsets with the proper subsets of general, mw
// words apiece, in blockerMasks order and reports true, or reports false
// when general has more than enumLimit attributes.
func (t *Tree) blockerBases(general []uint64) bool {
	var attrs [enumLimit]int
	k := 0
	for i, x := range general {
		for ; x != 0; x &= x - 1 {
			if k == enumLimit {
				return false
			}
			attrs[k] = i<<6 | bits.TrailingZeros64(x)
			k++
		}
	}
	t.subsets = t.subsets[:0]
	for _, mask := range blockerMasks[k] {
		at := len(t.subsets)
		t.subsets = append(t.subsets, make([]uint64, t.mw)...)
		sub := t.subsets[at:]
		for b := 0; b < k; b++ {
			if mask&(1<<b) != 0 {
				sub[attrs[b]>>6] |= 1 << (attrs[b] & 63)
			}
		}
	}
	return true
}

// blockedByBases reports whether some S ∪ {attr}, S in the table
// blockerBases filled, is stored. Its probes are most of an inversion's
// membership lookups, so at one word it walks the table's slots in place
// (S ∪ {attr} is never ∅, whose flag it may skip); copying each base
// into a probe first cost the dense inversion benchmark about 10%.
func (t *Tree) blockedByBases(attr int) bool {
	m := t.members
	if t.mw == 1 {
		bit := uint64(1) << attr
	bases:
		for _, sub := range t.subsets {
			x := sub | bit
			for i := (x * hashMul) >> m.shift; m.slots[i] != x; i = (i + 1) & m.mask {
				if m.slots[i] == 0 {
					continue bases
				}
			}
			return true
		}
		return false
	}
	probe := t.probe
	for i := 0; i < len(t.subsets); i += t.mw {
		copy(probe, t.subsets[i:i+t.mw])
		probe[attr>>6] |= 1 << (attr & 63)
		if m.has(probe) {
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

// InvertPending inverts every set that the negative cover n holds marked
// pending into the candidate tree of the same RHS, and unmarks it. Each
// RHS takes its sets in canonical order, ascending cardinality and then
// attribute list (fdset.SortFDs' order within one RHS), so the most
// general non-FDs invert first. The trees of distinct RHSs are
// independent: the pool runs one task per RHS that has pending sets,
// touching only that RHS's two trees, so the covers and the count are the
// same for every worker count, the nil (sequential) pool included. It
// returns the number of candidates added, GR_Pcover's numerator.
func (p *PCover) InvertPending(n *NCover, pl *pool.Pool) int {
	var busy []int
	for rhs, t := range n.trees {
		if len(t.pending) > 0 {
			busy = append(busy, rhs)
		}
	}
	added := make([]int, len(busy))
	pl.Do(len(busy), func(k int) {
		rhs := busy[k]
		added[k] = p.trees[rhs].invertPending(n.trees[rhs], rhs, p.ncols)
	})
	total := 0
	for _, a := range added {
		total += a
	}
	return total
}

// invertPending inverts the pending sets of nt, the negative-cover tree
// of rhs, into t, its candidate tree, and returns the candidates added.
//
//fdlint:hotpath
func (t *Tree) invertPending(nt *Tree, rhs, ncols int) int {
	added := 0
	for _, leaf := range nt.takePending() {
		added += t.invert(nt.inter(leaf), rhs, ncols)
	}
	return added
}

// Retire patches the candidate tree of rhs in place after retirements
// shrank its negative cover. retired are the LHSs that left the negative
// cover for rhs, and nonFDs every LHS it stores for rhs now: the
// survivors plus re-admitted subsets of retired sets. The tree must hold
// the cover of the negative cover before the retirements; afterwards it
// holds exactly what Rebuild(rhs, nonFDs) derives.
//
// Inversion only runs forward, but a retirement can validate only sets
// inside the region W that the retired sets span. Retire inverts the
// distinct projections n ∩ W from ∅ in a scratch tree, each widened by
// every attribute outside W so that candidates grow only inside W. That
// leaves S, the minimal subsets of W no stored non-FD contains, and each
// member of S the tree lacks replaces its stored supersets (DESIGN.md,
// "Pcover patching, not rebuild", gives the proof). When W spans every
// attribute but rhs, this is Rebuild's work plus one sweep of S.
// Touching only trees[rhs] makes Retire safe to run for distinct RHS
// values concurrently.
func (p *PCover) Retire(rhs int, retired, nonFDs []fdset.AttrSet) {
	var region fdset.AttrSet
	for _, r := range retired {
		region = region.Union(r)
	}
	outside := fdset.FullSet(p.ncols).Diff(region).Without(rhs)
	t := p.trees[rhs]
	var buf [fdset.NumWords]uint64
	// Many non-FDs share a projection: sort only the distinct ones,
	// largest first, since a smaller one inverted later finds most of
	// its subsets already gone.
	proj := make([]fdset.AttrSet, 0, len(nonFDs))
	seen := NewMasks(t.mw, false, false)
	for _, n := range nonFDs {
		proj = seen.AppendNew(proj, t.words(&buf, n.Intersect(region)))
	}
	fdset.SortSetsDesc(proj)

	patch := NewTree(p.ncols, t.rank)
	patch.Add(fdset.EmptySet())
	for _, x := range proj {
		patch.invert(patch.words(&buf, x.Union(outside)), rhs, p.ncols)
	}
	patch.ForEach(func(x fdset.AttrSet) bool {
		if w := t.words(&buf, x); !t.members.has(w) {
			t.root, _ = t.removeSupersets(t.root, w)
			t.add(w)
		}
		return true
	})
}

// Rebuild re-derives the per-RHS candidate tree from scratch: reset to
// the most general candidate ∅ and invert every given non-FD LHS. It is
// the reference that tests hold Retire to. The result is independent of
// the order of nonFDs (the cover is determined by the set of inverted
// non-FDs).
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
//
// The cover keeps each RHS's run of the last call and brings it up to
// date from what the tree logged since (refresh), so a read-out after a
// small change costs about what changed, not a sort of the whole cover.
// The returned set is a copy that shares no storage with the cover, and
// the caller may keep or change it. Because FDs updates the cover's
// read-out state, it must not run concurrently with itself or with any
// change to the cover.
func (p *PCover) FDs() *fdset.Set {
	if p.runs == nil {
		p.runs = make([][]uint64, len(p.trees))
	}
	for rhs, t := range p.trees {
		p.runs[rhs] = p.refresh(t, p.runs[rhs])
	}
	return fdset.FromCanonicalRuns(preprocess.MaskWords(p.ncols), p.runs)
}

// refresh returns run, the sets of tree t at its last read-out in
// CompareMasks order, brought up to date, and restarts t's log. The sets
// the tree no longer holds leave the run; the logged sets it still holds
// are sorted and merged in. A tree with nothing logged that still holds
// as many sets as its run has not changed, since every insert is logged.
// A tree that is not logging (never read out, or its log outgrew it) is
// read in full by the same merge: from an empty run, with every stored
// set as logged.
func (p *PCover) refresh(t *Tree, run []uint64) []uint64 {
	mw, added, full := t.mw, t.log, !t.logging
	switch {
	case full:
		p.leaves = p.leaves[:0]
		t.members.Each(func(s []uint64) { p.leaves = append(p.leaves, s...) })
		run, added = run[:0], p.leaves
	case len(added) == 0 && len(run) == mw*t.size:
		return run
	}
	kept := run[:0]
	for k := 0; k < len(run); k += mw {
		if x := run[k : k+mw]; t.members.has(x) {
			kept = append(kept, x...)
		}
	}
	p.order = p.order[:0]
	for k := 0; k < len(added); k += mw {
		if full || t.members.has(added[k:k+mw]) {
			p.order = append(p.order, int32(k))
		}
	}
	slices.SortFunc(p.order, func(a, b int32) int {
		return fdset.CompareMasks(added[a:int(a)+mw], added[b:int(b)+mw])
	})
	t.log, t.logging = t.log[:0], true
	return mergeRun(kept, added, p.order, mw)
}

// mergeRun merges into kept, masks of mw words in CompareMasks order
// without repeats, the masks of added at the offsets in order, sorted
// the same way, and drops repeats. It merges from the back, into kept's
// own array grown to hold both, so it needs no other buffer: the masks
// still to place always fit between kept's unread head and the merged
// tail.
func mergeRun(kept, added []uint64, order []int32, mw int) []uint64 {
	i, end := len(kept), len(kept)+mw*len(order)
	run := slices.Grow(kept, end-i)[:end]
	w := end // run[w:end] is merged
	for j := len(order) - 1; j >= 0; j-- {
		y := added[order[j] : int(order[j])+mw]
		c := -1
		for i > 0 {
			if c = fdset.CompareMasks(run[i-mw:i], y); c <= 0 {
				break
			}
			w, i = w-mw, i-mw
			copy(run[w:w+mw], run[i:i+mw])
		}
		if c == 0 {
			i -= mw // y takes the place of its kept copy
		}
		if w == end || !slices.Equal(run[w:w+mw], y) {
			w -= mw
			copy(run[w:w+mw], y)
		}
	}
	return run[:i+copy(run[i:], run[w:end])]
}

// Tree exposes the per-RHS candidate tree.
func (p *PCover) Tree(rhs int) *Tree { return p.trees[rhs] }
