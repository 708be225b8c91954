package fdset

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// Set is a collection of FDs with set semantics, always in the canonical
// order of Compare. The zero value is empty and ready to use via Add.
//
// The set keeps one run per RHS, in ascending RHS order, and each run
// lists its LHSs as bit masks in Compare order, mw words apiece (word k
// holds attributes [64k, 64k+64)). mw is as many words as the widest LHS
// the set has held needs — one up to 64 attributes, 8 bytes per FD —
// and Add widens every run when a wider LHS arrives. Reads walk the runs
// and never sort, hash or write to the set, so any number of goroutines
// may read one set at once. Contains, Add and Remove binary-search one
// run, and Add and Remove shift the rest of it: build a large set with
// NewSet, not with Add in a loop.
type Set struct {
	mw   int
	n    int
	runs []run
}

// run holds the LHS masks of one RHS, mw words apiece, in Compare order;
// a set holds no empty run. Runs built together share one array, each
// capped at its own end, so growing one run never writes into the next.
type run struct {
	rhs   int
	masks []uint64
}

// width returns the number of words a mask of s needs: up to its highest
// non-empty word, and at least one.
func (s AttrSet) width() int { return maskWidth(s.w[:]) }

// maskWidth returns the number of words the mask x needs: up to its
// highest non-empty word, and at least one.
func maskWidth(x []uint64) int {
	k := len(x)
	for k > 1 && x[k-1] == 0 {
		k--
	}
	return k
}

// NewSet returns the set of the given FDs, which may come in any order
// and repeat. It sorts a copy of fds once (SortFDs).
func NewSet(fds ...FD) *Set {
	sorted := slices.Clone(fds)
	SortFDs(sorted)
	sorted = slices.Compact(sorted)
	s := &Set{n: len(sorted)}
	for _, f := range sorted {
		s.mw = max(s.mw, f.LHS.width())
	}
	flat := make([]uint64, 0, len(sorted)*s.mw)
	for i := 0; i < len(sorted); {
		rhs, from := sorted[i].RHS, len(flat)
		for ; i < len(sorted) && sorted[i].RHS == rhs; i++ {
			flat = append(flat, sorted[i].LHS.w[:s.mw]...)
		}
		s.runs = append(s.runs, run{rhs: rhs, masks: flat[from:len(flat):len(flat)]})
	}
	return s
}

// FromCanonicalRuns returns the set of the FDs lhs → rhs for every rhs
// and every mask lhs in runs[rhs], mw words apiece. Each run must list
// its masks in CompareMasks order without repeats; they are neither
// sorted nor checked, which is what sets this constructor apart from
// NewSet. Empty runs are skipped. The set copies the runs into one array
// at the width its widest LHS needs, as NewSet packs, so it shares no
// storage with runs.
func FromCanonicalRuns(mw int, runs [][]uint64) *Set {
	if mw < 1 || mw > NumWords {
		panic(fmt.Sprintf("fdset: mask width %d out of range [1,%d]", mw, NumWords))
	}
	s, live := &Set{}, 0
	for _, masks := range runs {
		if len(masks) > 0 {
			live++
		}
		s.n += len(masks) / mw
		for k := 0; k < len(masks) && s.mw < mw; k += mw {
			s.mw = max(s.mw, maskWidth(masks[k:k+mw]))
		}
	}
	flat := make([]uint64, 0, s.n*s.mw)
	s.runs = make([]run, 0, live)
	for rhs, masks := range runs {
		if len(masks) == 0 {
			continue
		}
		from := len(flat)
		if s.mw == mw {
			flat = append(flat, masks...)
		} else {
			for k := 0; k < len(masks); k += mw {
				flat = append(flat, masks[k:k+s.mw]...)
			}
		}
		s.runs = append(s.runs, run{rhs: rhs, masks: flat[from:len(flat):len(flat)]})
	}
	return s
}

// packed returns a copy of s's runs at width mw ≥ s.mw, in one array.
func (s *Set) packed(mw int) []run {
	flat := make([]uint64, s.n*mw)
	runs := make([]run, len(s.runs))
	o := 0
	for i, r := range s.runs {
		from := o
		if mw == s.mw {
			o += copy(flat[o:], r.masks)
		} else {
			for k := 0; k < len(r.masks); k += s.mw {
				copy(flat[o:], r.masks[k:k+s.mw])
				o += mw
			}
		}
		runs[i] = run{rhs: r.rhs, masks: flat[from:o:o]}
	}
	return runs
}

// locate returns the index of the run of f.RHS, or where it would go,
// the position of f.LHS in that run, or where it would go, and whether
// f is in the set.
func (s *Set) locate(f *FD) (i, j int, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	i, ok = slices.BinarySearchFunc(s.runs, f.RHS, func(r run, rhs int) int { return cmp.Compare(r.rhs, rhs) })
	if !ok || f.LHS.width() > s.mw {
		return i, 0, false
	}
	j, ok = find(s.runs[i].masks, f.LHS.w[:s.mw])
	return i, j, ok
}

// find returns the position of the mask x in the run masks, both of
// width len(x), or where it would go, and whether it is there.
func find(masks, x []uint64) (int, bool) {
	mw := len(x)
	lo, hi := 0, len(masks)/mw
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if CompareMasks(masks[m*mw:m*mw+mw], x) < 0 {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo*mw < len(masks) && slices.Equal(masks[lo*mw:lo*mw+mw], x)
}

// Add inserts f. It reports whether f was not already present.
func (s *Set) Add(f FD) bool {
	if w := f.LHS.width(); w > s.mw {
		s.runs, s.mw = s.packed(w), w
	}
	i, j, ok := s.locate(&f)
	if ok {
		return false
	}
	if i == len(s.runs) || s.runs[i].rhs != f.RHS {
		s.runs = slices.Insert(s.runs, i, run{rhs: f.RHS})
	}
	s.runs[i].masks = slices.Insert(s.runs[i].masks, j*s.mw, f.LHS.w[:s.mw]...)
	s.n++
	return true
}

// Remove deletes f. It reports whether f was present.
func (s *Set) Remove(f FD) bool {
	i, j, ok := s.locate(&f)
	if !ok {
		return false
	}
	r := &s.runs[i]
	if r.masks = slices.Delete(r.masks, j*s.mw, (j+1)*s.mw); len(r.masks) == 0 {
		s.runs = slices.Delete(s.runs, i, i+1)
	}
	s.n--
	return true
}

// Contains reports whether f is in the set.
func (s *Set) Contains(f FD) bool {
	_, _, ok := s.locate(&f)
	return ok
}

// Len returns the number of FDs in the set.
func (s *Set) Len() int {
	if s == nil {
		return 0
	}
	return s.n
}

// Slice returns the FDs in canonical order: ascending RHS, then by LHS
// cardinality, then by the ascending attribute list of the LHS.
func (s *Set) Slice() []FD {
	if s == nil {
		return nil
	}
	out := make([]FD, 0, s.n)
	s.ForEach(func(f FD) { out = append(out, f) })
	return out
}

// ForEach calls fn for every FD in the canonical order of Slice. It walks
// the set in place, so fn must not add to or remove from the set.
func (s *Set) ForEach(fn func(FD)) {
	if s == nil {
		return
	}
	mw := s.mw
	for _, r := range s.runs {
		for k := 0; k < len(r.masks); k += mw {
			fn(FD{LHS: FromWords(r.masks[k : k+mw]), RHS: r.rhs})
		}
	}
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{}
	if s != nil {
		c.mw, c.n, c.runs = s.mw, s.n, s.packed(s.mw)
	}
	return c
}

// Equal reports whether s and t contain exactly the same FDs. Both are
// in canonical order, so they are equal when their runs are, mask by
// mask; the two may store their masks at different widths.
func (s *Set) Equal(t *Set) bool {
	if s.Len() != t.Len() {
		return false
	}
	if s.Len() == 0 {
		return true
	}
	if len(s.runs) != len(t.runs) {
		return false
	}
	for i, r := range s.runs {
		u := t.runs[i]
		if r.rhs != u.rhs || len(r.masks)/s.mw != len(u.masks)/t.mw {
			return false
		}
		for k := 0; k < len(r.masks)/s.mw; k++ {
			if FromWords(r.masks[k*s.mw:(k+1)*s.mw]) != FromWords(u.masks[k*t.mw:(k+1)*t.mw]) {
				return false
			}
		}
	}
	return true
}

// Minimize removes from the set every trivial FD, and every FD that
// another FD with the same RHS generalizes, so that only minimal FDs
// remain. It returns the receiver for chaining. A generalization has
// fewer attributes, so in Compare order it comes first: each LHS is
// checked only against the kept LHSs of its own run with fewer
// attributes.
func (s *Set) Minimize() *Set {
	if s == nil {
		return s
	}
	mw, kept := s.mw, s.runs[:0]
	s.n = 0
	for _, r := range s.runs {
		n, fewer, card := 0, 0, -1
		for k := 0; k < len(r.masks); k += mw {
			x := r.masks[k : k+mw]
			if c := count(x); c != card {
				card, fewer = c, n
			}
			if hasAttr(x, r.rhs) || hasSubset(r.masks[:fewer], x) {
				continue
			}
			n += copy(r.masks[n:], x)
		}
		if n > 0 {
			kept = append(kept, run{rhs: r.rhs, masks: r.masks[:n]})
			s.n += n / mw
		}
	}
	clear(s.runs[len(kept):])
	s.runs = kept
	return s
}

// count returns the number of attributes in the mask x.
func count(x []uint64) int {
	n := 0
	for _, w := range x {
		n += bits.OnesCount64(w)
	}
	return n
}

// hasAttr reports whether attribute a is in the mask x.
func hasAttr(x []uint64, a int) bool {
	return uint(a>>6) < uint(len(x)) && x[a>>6]&(1<<(a&63)) != 0
}

// hasSubset reports whether some mask of masks, len(x) words apiece, is
// a subset of x.
func hasSubset(masks, x []uint64) bool {
	if len(x) == 1 {
		for _, y := range masks {
			if y&^x[0] == 0 {
				return true
			}
		}
		return false
	}
next:
	for k := 0; k < len(masks); k += len(x) {
		for i, y := range masks[k : k+len(x)] {
			if y&^x[i] != 0 {
				continue next
			}
		}
		return true
	}
	return false
}

// FormatSet renders every FD in the set with attribute names, one per line.
func FormatSet(s *Set, names []string) string {
	var b strings.Builder
	s.ForEach(func(f FD) {
		b.WriteString(f.Format(names))
		b.WriteByte('\n')
	})
	return b.String()
}
