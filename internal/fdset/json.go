package fdset

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strconv"
)

// fdWire is the JSON shape of one FD: attribute indices, not names
// (resolve names against a schema at a higher layer, e.g. eulerfd.Docs).
type fdWire struct {
	LHS []int `json:"lhs"`
	RHS int   `json:"rhs"`
}

// MarshalJSON encodes the FD as {"lhs":[indices...],"rhs":index} with the
// LHS in ascending order (Attrs order), so equal FDs always serialize to
// equal bytes.
func (f FD) MarshalJSON() ([]byte, error) {
	return compactJSON.appendFD(make([]byte, 0, compactJSON.fdLen(f)), f), nil
}

// UnmarshalJSON decodes the wire shape written by MarshalJSON.
func (f *FD) UnmarshalJSON(data []byte) error {
	var w fdWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	for _, a := range w.LHS {
		if a < 0 || a >= MaxAttrs {
			return fmt.Errorf("fdset: LHS attribute index %d out of range [0,%d)", a, MaxAttrs)
		}
	}
	if w.RHS < 0 || w.RHS >= MaxAttrs {
		return fmt.Errorf("fdset: RHS attribute index %d out of range [0,%d)", w.RHS, MaxAttrs)
	}
	*f = NewFD(w.LHS, w.RHS)
	return nil
}

// MarshalJSON encodes the set as an array of FDs in canonical order, in
// one buffer sized to the output, walking the runs in place: no sorted
// copy. An empty set encodes as []; note encoding/json renders a nil
// *Set struct field as null without consulting this method.
func (s *Set) MarshalJSON() ([]byte, error) {
	return compactJSON.appendSet(nil, s), nil
}

// AppendIndentJSON appends s to dst as json.MarshalIndent(s.Slice(),
// prefix, indent) renders it, an empty or nil set as []. The output
// grows dst once, to its exact size.
func AppendIndentJSON(dst []byte, s *Set, prefix, indent string) []byte {
	nl := "\n" + prefix
	l := jsonLayout{colon: ": ", array: nl, fd: nl + indent, key: nl + indent + indent, attr: nl + indent + indent + indent}
	return l.appendSet(dst, s)
}

// jsonLayout holds the separators of one rendering of FD JSON. Each of
// array, fd, key and attr is a line break plus the indentation of that
// nesting level (the array's closing bracket, one FD object, its keys,
// its LHS attributes); all are empty in the compact form.
type jsonLayout struct {
	colon                string
	array, fd, key, attr string
}

// compactJSON is the layout json.Marshal writes.
var compactJSON = jsonLayout{colon: ":"}

// appendSet appends s as a JSON array, growing dst once to fit. It
// walks the runs twice, to size the output and to write it, and renders
// each run's RHS once.
func (l *jsonLayout) appendSet(dst []byte, s *Set) []byte {
	if s.Len() == 0 {
		return append(dst, "[]"...)
	}
	n := len("[]") + len(l.array) + (s.n - 1) // closing line break, commas
	for _, r := range s.runs {
		empty := len(l.fd) + l.fdLen(FD{RHS: r.rhs})
		for k := 0; k < len(r.masks); k += s.mw {
			n += empty + l.lhsLen(r.masks[k:k+s.mw])
		}
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, '[')
	for i, r := range s.runs {
		var buf [20]byte
		rhs := strconv.AppendInt(buf[:0], int64(r.rhs), 10)
		for k := 0; k < len(r.masks); k += s.mw {
			if i > 0 || k > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, l.fd...)
			dst = l.appendMask(dst, r.masks[k:k+s.mw], rhs)
		}
	}
	dst = append(dst, l.array...)
	return append(dst, ']')
}

// appendFD appends one FD object.
func (l *jsonLayout) appendFD(dst []byte, f FD) []byte {
	var buf [20]byte
	return l.appendMask(dst, f.LHS.w[:], strconv.AppendInt(buf[:0], int64(f.RHS), 10))
}

// appendMask appends the FD object of the LHS mask lhs and the RHS
// rendered as rhs. It walks the mask's words directly:
// strconv.AppendInt per attribute, no reflection, no compaction pass.
func (l *jsonLayout) appendMask(dst []byte, lhs []uint64, rhs []byte) []byte {
	dst = append(dst, '{')
	dst = append(dst, l.key...)
	dst = append(dst, `"lhs"`...)
	dst = append(dst, l.colon...)
	dst = append(dst, '[')
	first := true
	for i, w := range lhs {
		for ; w != 0; w &= w - 1 {
			if !first {
				dst = append(dst, ',')
			}
			first = false
			dst = append(dst, l.attr...)
			dst = strconv.AppendInt(dst, int64(i*64+bits.TrailingZeros64(w)), 10)
		}
	}
	if !first {
		dst = append(dst, l.key...)
	}
	dst = append(dst, "],"...)
	dst = append(dst, l.key...)
	dst = append(dst, `"rhs"`...)
	dst = append(dst, l.colon...)
	dst = append(dst, rhs...)
	dst = append(dst, l.fd...)
	return append(dst, '}')
}

// fdLen returns the exact length appendFD writes for f.
func (l *jsonLayout) fdLen(f FD) int {
	return len(`{"lhs"[],"rhs"}`) + 2*len(l.colon) + 2*len(l.key) + len(l.fd) + intLen(f.RHS) + l.lhsLen(f.LHS.w[:])
}

// lhsLen returns what the attributes of the LHS mask lhs add to the
// length of an FD object.
func (l *jsonLayout) lhsLen(lhs []uint64) int {
	k := count(lhs)
	if k == 0 {
		return 0
	}
	return digits(lhs) + (k - 1) + k*len(l.attr) + len(l.key)
}

// digits returns the number of decimal digits of all attributes of the
// mask w together: one per attribute, one more per attribute ≥ 10 and
// one more per attribute ≥ 100 (MaxAttrs < 1000). Attribute 10 is bit
// 10 of word 0 and attribute 100 bit 36 of word 1.
func digits(w []uint64) int {
	n := bits.OnesCount64(w[0] >> 10)
	if len(w) > 1 {
		n += bits.OnesCount64(w[1] >> 36)
	}
	for i, x := range w {
		n += min(i+1, 3) * bits.OnesCount64(x)
	}
	return n
}

// intLen returns the length of v in decimal, sign included.
func intLen(v int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(v), 10))
}

// UnmarshalJSON decodes an array of FDs into the set, replacing its
// contents.
func (s *Set) UnmarshalJSON(data []byte) error {
	var fds []FD
	if err := json.Unmarshal(data, &fds); err != nil {
		return err
	}
	*s = *NewSet(fds...)
	return nil
}
