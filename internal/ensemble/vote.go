package ensemble

import (
	"cmp"
	"slices"
	"sync"

	"eulerfd/internal/fdset"
)

// mergeVotes is the canonical vote merge: candidates are the union of
// the members' minimal covers in canonical (fdset.Less) order, and a
// member votes for a candidate when its cover implies it — contains the
// FD, or a generalization of it. The whole computation is a pure
// function of the member sets as *sets*: permuting the members permutes
// nothing (votes are counts), so run-completion order cannot reach the
// output. Confidence is one integer division per candidate.
func mergeVotes(members []*fdset.Set) []ScoredFD {
	n := len(members)
	covers := make([][]fdset.FD, n)
	var all []fdset.FD
	for i, m := range members {
		covers[i] = m.Slice()
		all = append(all, covers[i]...)
	}
	fdset.SortFDs(all)
	cands := slices.Compact(all)
	out := make([]ScoredFD, 0, len(cands))
	for _, f := range cands {
		votes := 0
		for i := range members {
			if members[i].Contains(f) || implies(covers[i], f) {
				votes++
			}
		}
		out = append(out, ScoredFD{FD: f, Votes: votes, Confidence: float64(votes) / float64(n)})
	}
	return out
}

// implies reports whether some FD of the cover generalizes f: same RHS,
// LHS a subset. A minimal cover that found A→C has proven AB→C along
// with it, so the member agrees with the candidate even though its own
// minimization removed the specialization.
func implies(cover []fdset.FD, f fdset.FD) bool {
	for _, g := range cover {
		if g.RHS == f.RHS && g.LHS.IsSubsetOf(f.LHS) {
			return true
		}
	}
	return false
}

// SortByConfidence reorders candidates for presentation: descending
// vote count, ties broken canonically (fdset.Compare). It compares the
// integer Votes, never the derived float, so the order is exact.
// Result.FDs itself stays in canonical order; this is for displays that
// lead with the strongest candidates.
func SortByConfidence(fds []ScoredFD) {
	slices.SortFunc(fds, func(a, b ScoredFD) int {
		if c := cmp.Compare(b.Votes, a.Votes); c != 0 {
			return c
		}
		return fdset.Compare(a.FD, b.FD)
	})
}

// progress serializes Observer calls: members finish in scheduling
// order, but the observer sees the deterministic sequence 1..total. The
// observer runs under the lock, so a slow observer slows members but
// never races them.
type progress struct {
	mu   sync.Mutex
	done int
}

func (p *progress) step(obs Observer, total int) {
	if obs == nil {
		return
	}
	p.mu.Lock()
	p.done++
	obs(p.done, total)
	p.mu.Unlock()
}
