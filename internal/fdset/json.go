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

// MarshalJSON encodes the set as an array of FDs in Slice order (sorted,
// deterministic), in one buffer sized to the output. An empty set
// encodes as []; note encoding/json renders a nil *Set struct field as
// null without consulting this method.
func (s *Set) MarshalJSON() ([]byte, error) {
	return compactJSON.appendFDs(nil, s.Slice()), nil
}

// AppendIndentJSON appends fds to dst as json.MarshalIndent(fds, prefix,
// indent) renders them, an empty or nil slice as []. The output grows dst
// once, to its exact size.
func AppendIndentJSON(dst []byte, fds []FD, prefix, indent string) []byte {
	nl := "\n" + prefix
	l := jsonLayout{colon: ": ", array: nl, fd: nl + indent, key: nl + indent + indent, attr: nl + indent + indent + indent}
	return l.appendFDs(dst, fds)
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

// appendFDs appends fds as a JSON array, growing dst once to fit.
func (l *jsonLayout) appendFDs(dst []byte, fds []FD) []byte {
	n := len("[]")
	if len(fds) > 0 {
		n += len(l.array) + (len(fds) - 1) // closing line break, commas
	}
	for _, f := range fds {
		n += len(l.fd) + l.fdLen(f)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, '[')
	for i, f := range fds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, l.fd...)
		dst = l.appendFD(dst, f)
	}
	if len(fds) > 0 {
		dst = append(dst, l.array...)
	}
	return append(dst, ']')
}

// appendFD appends one FD object. It walks the LHS words directly:
// strconv.AppendInt per attribute, no reflection, no compaction pass.
func (l *jsonLayout) appendFD(dst []byte, f FD) []byte {
	dst = append(dst, '{')
	dst = append(dst, l.key...)
	dst = append(dst, `"lhs"`...)
	dst = append(dst, l.colon...)
	dst = append(dst, '[')
	first := true
	for i, w := range f.LHS.w {
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
	dst = strconv.AppendInt(dst, int64(f.RHS), 10)
	dst = append(dst, l.fd...)
	return append(dst, '}')
}

// fdLen returns the exact length appendFD writes for f.
func (l *jsonLayout) fdLen(f FD) int {
	k := f.LHS.Count()
	n := len(`{"lhs"[],"rhs"}`) + 2*len(l.colon) + 2*len(l.key) + len(l.fd) + intLen(f.RHS)
	if k > 0 {
		n += f.LHS.digits() + (k - 1) + k*len(l.attr) + len(l.key)
	}
	return n
}

// digits returns the number of decimal digits of all attributes of s
// together: one per attribute, one more per attribute ≥ 10 and one more
// per attribute ≥ 100 (MaxAttrs < 1000). Attribute 100 is bit 36 of
// word 1.
func (s AttrSet) digits() int {
	n := s.Count() + bits.OnesCount64(s.w[0]>>10) + bits.OnesCount64(s.w[1]>>36)
	for _, w := range s.w[1:] {
		n += bits.OnesCount64(w)
	}
	for _, w := range s.w[2:] {
		n += bits.OnesCount64(w)
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
