package cover

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"eulerfd/internal/fdset"
	"eulerfd/internal/pool"
)

// randomAgreeSets builds a reproducible drain of agree sets over ncols
// attributes, dense enough that later sets supersede earlier ones.
func randomAgreeSets(ncols, n int, seed int64) []fdset.AttrSet {
	r := rand.New(rand.NewSource(seed))
	out := make([]fdset.AttrSet, 0, n)
	for i := 0; i < n; i++ {
		var x fdset.AttrSet
		for a := 0; a < ncols; a++ {
			if r.Intn(2) == 0 {
				x.Add(a)
			}
		}
		out = append(out, x)
	}
	return out
}

// pendingOracle is the double cycle's bookkeeping before the negative
// cover carried it: every agree set expands into its non-FDs, agree set
// by agree set, and each enters the cover through Add in that order; a
// map keeps the admitted non-FDs that are neither inverted nor
// superseded since.
type pendingOracle struct {
	nc      *NCover
	pending map[fdset.FD]bool
}

func newPendingOracle(ncols int) *pendingOracle {
	return &pendingOracle{nc: NewNCover(ncols, nil), pending: make(map[fdset.FD]bool)}
}

// add admits one non-FD, returning whether the cover changed.
func (o *pendingOracle) add(f fdset.FD) bool {
	if !o.nc.Add(f) {
		return false
	}
	// Add removed every stored proper subset of f.LHS, pending or not.
	for p := range o.pending {
		if p.RHS == f.RHS && p.LHS.IsProperSubsetOf(f.LHS) {
			delete(o.pending, p)
		}
	}
	o.pending[f] = true
	return true
}

// admit is NCover.Admit, returning the admissions per RHS.
func (o *pendingOracle) admit(agrees []fdset.AttrSet) []int {
	added := make([]int, o.nc.NumCols())
	for _, x := range agrees {
		for a := 0; a < o.nc.NumCols(); a++ {
			if !x.Has(a) && o.add(fdset.FD{LHS: x, RHS: a}) {
				added[a]++
			}
		}
	}
	return added
}

// removeLHS is NCover.RemoveLHS: a removed set is no longer pending.
func (o *pendingOracle) removeLHS(rhs int, lhs fdset.AttrSet) bool {
	delete(o.pending, fdset.FD{LHS: lhs, RHS: rhs})
	return o.nc.RemoveLHS(rhs, lhs)
}

// take returns the pending non-FDs in canonical order and forgets them.
func (o *pendingOracle) take() []fdset.FD {
	out := make([]fdset.FD, 0, len(o.pending))
	for f := range o.pending {
		out = append(out, f)
	}
	fdset.SortFDs(out)
	clear(o.pending)
	return out
}

// takeAll takes every tree's pending sets, by ascending RHS, as non-FDs.
func takeAll(n *NCover) []fdset.FD {
	var out []fdset.FD
	for rhs, t := range n.trees {
		for _, leaf := range t.takePending() {
			out = append(out, fdset.FD{LHS: fdset.FromWords(t.inter(leaf)), RHS: rhs})
		}
	}
	return out
}

// marked returns the length of each tree's pending list.
func marked(n *NCover) []int {
	out := make([]int, len(n.trees))
	for rhs, t := range n.trees {
		out[rhs] = len(t.pending)
	}
	return out
}

// sameNCover fails the test unless n and the oracle store the same sets.
func sameNCover(t *testing.T, what string, n *NCover, o *pendingOracle) {
	t.Helper()
	if n.Size() != o.nc.Size() {
		t.Fatalf("%s: Size() = %d, want %d", what, n.Size(), o.nc.Size())
	}
	if got, want := n.FDs(), o.nc.FDs(); !slices.Equal(got, want) {
		t.Fatalf("%s: cover %v, want %v", what, got, want)
	}
}

// TestAddTrackedBatchMatchesSequentialAddTracked holds Admit, the batch
// admission, to sequential Add of each agree set's non-FDs for several
// worker counts: the same count, the same cover and, after every drain,
// the same pending sets in canonical order.
func TestAddTrackedBatchMatchesSequentialAddTracked(t *testing.T) {
	const ncols = 12
	drains := [][]fdset.AttrSet{randomAgreeSets(ncols, 150, 42), randomAgreeSets(ncols, 150, 43)}
	for _, workers := range []int{1, 2, 4, 8} {
		o := newPendingOracle(ncols)
		pl := pool.New(workers)
		n := NewNCover(ncols, nil)
		for d, drain := range drains {
			perRHS := o.admit(drain)
			want := 0
			for _, a := range perRHS {
				want += a
			}
			if got := n.Admit(drain, pl); got != want {
				t.Errorf("workers=%d, drain %d: Admit = %d, want %d", workers, d, got, want)
			}
			what := fmt.Sprintf("workers=%d, drain %d", workers, d)
			sameNCover(t, what, n, o)
			if got, want := takeAll(n), o.take(); !slices.Equal(got, want) {
				t.Fatalf("%s: took %v, want %v", what, got, want)
			}
		}
		pl.Close()
	}
}

// pendingList returns the leaves a tree lists pending, in listing order,
// with each one no longer marked (it left with its set) negated.
func pendingList(t *Tree) []int32 {
	out := make([]int32, len(t.pending))
	for i, leaf := range t.pending {
		out[i] = leaf
		if t.nodes[leaf].attr != pendingLeaf {
			out[i] = -leaf
		}
	}
	return out
}

// TestAddTrackedBatchEventsDeterministic holds Admit's bookkeeping to one
// outcome for every worker count: after each drain, each tree lists the
// same leaves pending in the same order, with the same ones superseded
// since, and takes the same sets.
func TestAddTrackedBatchEventsDeterministic(t *testing.T) {
	const ncols = 10
	agrees := randomAgreeSets(ncols, 400, 7)
	pl1, pl4 := pool.New(1), pool.New(4)
	defer pl1.Close()
	defer pl4.Close()
	n1, n4 := NewNCover(ncols, nil), NewNCover(ncols, nil)
	superseded := 0
	for d := 0; d < 4; d++ {
		drain := agrees[d*100 : (d+1)*100]
		if a1, a4 := n1.Admit(drain, pl1), n4.Admit(drain, pl4); a1 != a4 {
			t.Fatalf("drain %d: Admit = %d with 1 worker, %d with 4", d, a1, a4)
		}
		for rhs := range n1.trees {
			l1, l4 := pendingList(n1.trees[rhs]), pendingList(n4.trees[rhs])
			if !slices.Equal(l1, l4) {
				t.Fatalf("drain %d, rhs %d: pending list %v with 1 worker, %v with 4", d, rhs, l1, l4)
			}
			for _, leaf := range l1 {
				if leaf < 0 {
					superseded++
				}
			}
		}
		if got, want := n4.FDs(), n1.FDs(); !slices.Equal(got, want) {
			t.Fatalf("drain %d: cover %v with 4 workers, %v with 1", d, got, want)
		}
		// Take after every second drain, so pending sets of one drain
		// can be superseded by the next.
		if d%2 == 1 {
			if got, want := takeAll(n4), takeAll(n1); !slices.Equal(got, want) {
				t.Fatalf("drain %d: took %v with 4 workers, %v with 1", d, got, want)
			}
		}
	}
	if superseded == 0 {
		t.Fatal("no pending set was superseded; the drains do not exercise supersession")
	}
}

func TestAdmitSupersededLeavesPending(t *testing.T) {
	// A pending generalization leaves with its leaf when its
	// specialization lands in a later batch, and is never taken.
	n := NewNCover(4, nil)
	if n.Admit([]fdset.AttrSet{fdset.NewAttrSet(0)}, nil) != 3 {
		t.Fatal("first admission did not store {0} for RHSs 1, 2 and 3")
	}
	if n.Admit([]fdset.AttrSet{fdset.NewAttrSet(0, 1)}, nil) != 2 {
		t.Fatal("second admission did not store {0,1} for RHSs 2 and 3")
	}
	want := []fdset.FD{
		fdset.NewFD([]int{0}, 1),
		fdset.NewFD([]int{0, 1}, 2),
		fdset.NewFD([]int{0, 1}, 3),
	}
	if got := takeAll(n); !slices.Equal(got, want) {
		t.Fatalf("took %v, want %v", got, want)
	}
	if n.Size() != 3 {
		t.Errorf("size = %d, want 3", n.Size())
	}
	if got := takeAll(n); len(got) != 0 {
		t.Errorf("a second take found %v", got)
	}
	// Seed marks ∅ only in an empty tree, and Readmit never marks.
	if n.Seed(1) || !n.Seed(0) {
		t.Error("Seed stored ∅ beside {0} → 1, or refused the empty tree of 0")
	}
	if !n.RemoveLHS(2, fdset.NewAttrSet(0, 1)) || !n.Readmit(2, fdset.NewAttrSet(1)) {
		t.Fatal("could not replace {0,1} → 2 by {1} → 2")
	}
	if got, want := takeAll(n), []fdset.FD{fdset.NewFD(nil, 0)}; !slices.Equal(got, want) {
		t.Errorf("took %v, want %v", got, want)
	}
}

func TestInvertPendingMatchesSequential(t *testing.T) {
	const ncols = 9
	drains := [][]fdset.AttrSet{randomAgreeSets(ncols, 60, 99), randomAgreeSets(ncols, 60, 100)}
	for _, workers := range []int{1, 2, 4} {
		o := newPendingOracle(ncols)
		seq := NewPCover(ncols, nil)
		pl := pool.New(workers)
		n := NewNCover(ncols, nil)
		par := NewPCover(ncols, nil)
		for d, drain := range drains {
			o.admit(drain)
			n.Admit(drain, pl)
			seqAdded := seq.InvertAll(o.take())
			if parAdded := par.InvertPending(n, pl); parAdded != seqAdded {
				t.Errorf("workers=%d, drain %d: added = %d, want %d", workers, d, parAdded, seqAdded)
			}
			if !seq.FDs().Equal(par.FDs()) {
				t.Errorf("workers=%d, drain %d: pending inversion cover differs from sequential", workers, d)
			}
		}
		pl.Close()
	}
}

// FuzzNCoverPending holds the pending marks to pendingOracle at every
// fuzzWidth, for the nil pool and a pool of 4. Each op is two bytes, a
// kind and a universe mask; consecutive agree sets form one batch, which
// any other op admits first:
//
//   - kind 0 adds the mask's agree set (plus the width's pad) to the batch;
//   - kind 1 takes: the nil-pool cover's marks directly, which must be the
//     oracle's take in canonical order, and the pooled cover's through
//     PCover.InvertPending, which must match inverting the oracle's take;
//   - kind 2 removes one stored set of the mask's RHS (RemoveLHS);
//   - kind 3 re-admits the mask's set, without the RHS, into the RHS's
//     tree (Readmit);
//   - kind 4 seeds the mask's RHS (Seed).
//
// The mask's RHS is universe attribute mask mod 8. After every op both
// covers must store what the oracle's does.
func FuzzNCoverPending(f *testing.F) {
	const (
		opAgree = iota
		opTake
		opRemove
		opReadmit
		opSeed
	)
	f.Add([]byte{opSeed, 3, opAgree, 0b0011, opAgree, 0b0111, opTake, 0, opAgree, 0b1111, opTake, 0})
	f.Add([]byte{opAgree, 0x0f, opAgree, 0x3c, opRemove, 0x01, opReadmit, 0x05, opAgree, 0x7e, opTake, 0})
	f.Add([]byte{opAgree, 0x11, opAgree, 0x13, opAgree, 0x17, opRemove, 0x0a, opSeed, 0x0a, opReadmit, 0x02, opTake, 0})
	f.Add([]byte{opAgree, 0xf0, opAgree, 0x3c, opAgree, 0x03, opTake, 0, opAgree, 0x81, opAgree, 0x18, opTake, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const (
			universe = 8
			maxOps   = 48
		)
		pl := pool.New(4)
		defer pl.Close()
		for _, w := range fuzzWidths {
			ncols, pad := w.cols(universe), w.pad(universe)
			o := newPendingOracle(ncols)
			ref := NewPCover(ncols, nil)
			seq, par := NewNCover(ncols, nil), NewNCover(ncols, nil)
			pc := NewPCover(ncols, nil)
			var batch []fdset.AttrSet
			flush := func() {
				if len(batch) == 0 {
					return
				}
				perRHS := o.admit(batch)
				want := 0
				for _, a := range perRHS {
					want += a
				}
				before := marked(seq)
				if got, gotPar := seq.Admit(batch, nil), par.Admit(batch, pl); got != want || gotPar != want {
					t.Fatalf("width %v: Admit(%v) = %d (pool: %d), want %d", w, batch, got, gotPar, want)
				}
				// Every admission lists its leaf once.
				for rhs, n := range marked(seq) {
					if n-before[rhs] != perRHS[rhs] {
						t.Fatalf("width %v: Admit(%v) stored %d sets for RHS %d, want %d", w, batch, n-before[rhs], rhs, perRHS[rhs])
					}
				}
				batch = batch[:0]
			}
			for i := 0; i+1 < len(data) && i/2 < maxOps; i += 2 {
				kind, mask := data[i]%5, data[i+1]
				rhs := w.attr(int(mask) % universe)
				s := w.set(uint64(mask)).Union(pad)
				if kind != opAgree {
					flush()
				}
				switch kind {
				case opAgree:
					batch = append(batch, s)
				case opTake:
					want := o.take()
					if got := takeAll(seq); !slices.Equal(got, want) {
						t.Fatalf("width %v, op %d: took %v, want %v", w, i/2, got, want)
					}
					added, wantAdded := pc.InvertPending(par, pl), ref.InvertAll(want)
					if added != wantAdded || !pc.FDs().Equal(ref.FDs()) {
						t.Fatalf("width %v, op %d: pending inversion added %d, want %d, or its cover differs", w, i/2, added, wantAdded)
					}
				case opRemove:
					stored := o.nc.Tree(rhs).Sets()
					if len(stored) == 0 {
						continue
					}
					sortSets(stored)
					lhs := stored[int(mask)/universe%len(stored)]
					want := o.removeLHS(rhs, lhs)
					if seq.RemoveLHS(rhs, lhs) != want || par.RemoveLHS(rhs, lhs) != want {
						t.Fatalf("width %v, op %d: RemoveLHS(%d, %v) disagrees with the oracle", w, i/2, rhs, lhs)
					}
				case opReadmit:
					lhs := s.Without(rhs)
					want := o.nc.Readmit(rhs, lhs)
					if seq.Readmit(rhs, lhs) != want || par.Readmit(rhs, lhs) != want {
						t.Fatalf("width %v, op %d: Readmit(%d, %v) disagrees with the oracle", w, i/2, rhs, lhs)
					}
				case opSeed:
					want := o.add(fdset.FD{LHS: fdset.EmptySet(), RHS: rhs})
					if seq.Seed(rhs) != want || par.Seed(rhs) != want {
						t.Fatalf("width %v, op %d: Seed(%d) disagrees with the oracle", w, i/2, rhs)
					}
				}
				what := fmt.Sprintf("width %v, op %d", w, i/2)
				sameNCover(t, what, seq, o)
				sameNCover(t, what+" (pool)", par, o)
			}
		}
	})
}
