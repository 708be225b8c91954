// Package dfd implements the Dfd baseline (Abedjan, Schulze & Naumann,
// CIKM 2014): exact FD discovery by depth-first random walks through the
// lattice of LHS candidates, one walk per RHS attribute.
//
// Each lattice node is classified as dependency or non-dependency by a
// partition check; classifications propagate (supersets of dependencies
// are dependencies, subsets of non-dependencies are non-dependencies), so
// the walk only validates at the boundary. When a walk strands, the next
// unclassified node ("hole") is found by re-deriving the minimal sets
// that escape all known maximal non-dependencies — the same inversion
// machinery the induction algorithms use — and validating any that are
// not yet known minimal dependencies. Section II-A of the EulerFD paper
// lists Dfd with TANE among the lattice-traversal family.
package dfd

import (
	"context"
	"math/rand"
	"time"

	"eulerfd/internal/cover"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Stats reports the work a discovery run performed.
type Stats struct {
	Rows, Cols  int
	Validations int // partition checks performed
	WalkSteps   int // lattice nodes visited by random walks
	Restarts    int // hole-finding restarts
	PcoverSize  int
	Total       time.Duration
}

// rhsSearch is the per-RHS walk state.
type rhsSearch struct {
	enc   *preprocess.Encoded
	rhs   int
	m     int
	rng   *rand.Rand
	stats *Stats

	minDeps    *cover.Tree // minimal dependencies found so far
	maxNonDeps *cover.Tree // maximal non-dependencies found so far
	visited    map[fdset.AttrSet]bool
	parts      *preprocess.PartitionCache
}

// DiscoverEncodedContext returns the exact set of minimal, non-trivial
// FDs of an encoded relation. Cancellation is cooperative, checked
// between per-RHS lattice walks.
func DiscoverEncodedContext(ctx context.Context, enc *preprocess.Encoded) (*fdset.Set, Stats, error) {
	start := time.Now()
	m := len(enc.Attrs)
	stats := Stats{Rows: enc.NumRows, Cols: m}
	var fds []fdset.FD
	// The partition cache is shared across RHS walks: LHS candidates
	// repeat between attributes.
	parts := preprocess.NewPartitionCache(enc, 4096)
	for rhs := 0; rhs < m; rhs++ {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		s := &rhsSearch{
			enc: enc, rhs: rhs, m: m, parts: parts,
			// Deterministic per-RHS walks: reproducible runs.
			rng:        rand.New(rand.NewSource(int64(rhs)*2654435761 + 1)),
			stats:      &stats,
			minDeps:    cover.NewTree(m, nil),
			maxNonDeps: cover.NewTree(m, nil),
			visited:    map[fdset.AttrSet]bool{},
		}
		s.run()
		s.minDeps.ForEach(func(lhs fdset.AttrSet) bool {
			fds = append(fds, fdset.FD{LHS: lhs, RHS: rhs})
			return true
		})
	}
	out := fdset.NewSet(fds...)
	stats.PcoverSize = out.Len()
	stats.Total = time.Since(start)
	return out, stats, nil
}

// isDep classifies a node, validating against the data only when the
// known boundary does not decide it.
func (s *rhsSearch) isDep(x fdset.AttrSet) bool {
	if s.minDeps.ContainsSubset(x) {
		return true
	}
	if s.maxNonDeps.ContainsSuperset(x) {
		return false
	}
	s.stats.Validations++
	return s.enc.ConstantOn(s.parts.Get(x), s.rhs)
}

// run drives random walks from seed nodes until the lattice is fully
// classified for this RHS.
func (s *rhsSearch) run() {
	// Seed with the empty set: if ∅ → rhs holds, it is the unique
	// minimal dependency and the walk is over.
	if s.isDep(fdset.EmptySet()) {
		s.minDeps.Add(fdset.EmptySet())
		return
	}
	s.maxNonDeps.Add(fdset.EmptySet())

	// Initial random walks from the singleton seeds.
	for a := 0; a < s.m; a++ {
		if a != s.rhs {
			s.walk(fdset.NewAttrSet(a))
		}
	}
	// Hole-finding rounds: every escape of the known maximal non-deps is
	// either already a known minimal dependency, a new minimal dependency
	// (its proper subsets are all non-deps by construction, so validity
	// implies minimality), or a new non-dependency that seeds another
	// walk. Each round classifies every current hole, so the boundary
	// grows monotonically and the loop terminates.
	for {
		holes := s.holes()
		if len(holes) == 0 {
			return
		}
		s.stats.Restarts++
		for _, c := range holes {
			if s.isDep(c) {
				s.minDepAdd(c)
			} else {
				s.maxNonDepAdd(c)
				s.walk(c)
			}
		}
	}
}

// walk performs one random walk from node: dependencies descend toward
// minimality, non-dependencies ascend toward maximality.
func (s *rhsSearch) walk(node fdset.AttrSet) {
	for steps := 0; steps < 4*s.m+8; steps++ {
		if s.visited[node] {
			return
		}
		s.visited[node] = true
		s.stats.WalkSteps++
		if s.isDep(node) {
			// Find a sub-dependency to descend into; if every direct
			// subset is a non-dependency, node is a minimal dependency.
			attrs := node.Attrs()
			s.rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
			descended := false
			for _, a := range attrs {
				sub := node.Without(a)
				if s.isDep(sub) {
					node = sub
					descended = true
					break
				}
				s.maxNonDepAdd(sub)
			}
			if !descended {
				s.minDepAdd(node)
				return
			}
			continue
		}
		// Non-dependency: ascend through a random unexplored superset;
		// if every direct superset is a dependency, node is a maximal
		// non-dependency.
		s.maxNonDepAdd(node)
		var ups []int
		for a := 0; a < s.m; a++ {
			if a != s.rhs && !node.Has(a) {
				ups = append(ups, a)
			}
		}
		if len(ups) == 0 {
			return
		}
		node = node.With(ups[s.rng.Intn(len(ups))])
	}
}

// minDepAdd records a minimal dependency. Walks and hole classification
// only ever call it with genuinely minimal nodes (every direct subset
// checked non-dependent), so no stored superset can exist.
func (s *rhsSearch) minDepAdd(x fdset.AttrSet) {
	if s.minDeps.ContainsSubset(x) {
		return
	}
	s.minDeps.Add(x)
}

// maxNonDepAdd records a non-dependency, discarding its subsets.
func (s *rhsSearch) maxNonDepAdd(x fdset.AttrSet) {
	if s.maxNonDeps.ContainsSuperset(x) {
		return
	}
	s.maxNonDeps.RemoveSubsets(x)
	s.maxNonDeps.Add(x)
}

// holes finds unclassified nodes: the minimal sets escaping every known
// maximal non-dependency that are not already known minimal dependencies.
// If all escapes are classified dependencies, the lattice is decided —
// the escapes are then exactly the minimal dependencies.
func (s *rhsSearch) holes() []fdset.AttrSet {
	pc := cover.NewPCover(s.m, nil)
	s.maxNonDeps.ForEach(func(lhs fdset.AttrSet) bool {
		pc.Invert(fdset.FD{LHS: lhs, RHS: s.rhs})
		return true
	})
	var out []fdset.AttrSet
	pc.Tree(s.rhs).ForEach(func(c fdset.AttrSet) bool {
		if !s.minDeps.ContainsSubset(c) {
			out = append(out, c)
		}
		return true
	})
	return out
}
