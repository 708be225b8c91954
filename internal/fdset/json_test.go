package fdset

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestFDJSONRoundTrip(t *testing.T) {
	in := NewFD([]int{3, 1}, 5)
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"lhs":[1,3],"rhs":5}` {
		t.Errorf("wire shape = %s", b)
	}
	var out FD
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: %v != %v", out, in)
	}
	// Empty LHS serializes as [] and survives.
	b, err = json.Marshal(FD{LHS: EmptySet(), RHS: 0})
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"lhs":[],"rhs":0}` {
		t.Errorf("empty-LHS wire shape = %s", b)
	}
}

func TestFDJSONRejectsOutOfRange(t *testing.T) {
	var f FD
	if err := json.Unmarshal([]byte(`{"lhs":[-1],"rhs":0}`), &f); err == nil {
		t.Error("negative LHS index accepted")
	}
	if err := json.Unmarshal([]byte(`{"lhs":[0],"rhs":99999}`), &f); err == nil {
		t.Error("huge RHS index accepted")
	}
}

func TestSetJSONRoundTrip(t *testing.T) {
	in := NewSet(
		NewFD([]int{0, 2}, 1),
		NewFD([]int{1}, 3),
		NewFD(nil, 4),
	)
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Set
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Equal(in) {
		t.Errorf("round trip: %v != %v", out.Slice(), in.Slice())
	}
	// Determinism: marshaling twice yields identical bytes.
	b2, _ := json.Marshal(in)
	if string(b) != string(b2) {
		t.Errorf("non-deterministic encoding: %s vs %s", b, b2)
	}
	// An empty set encodes as [] (encoding/json renders a nil *Set as
	// null on its own, before method dispatch).
	if b, _ := json.Marshal(NewSet()); string(b) != "[]" {
		t.Errorf("empty set = %s", b)
	}
}

// refFD is the wire shape of one FD as encoding/json itself renders it.
// The hand-written encoder must match it byte for byte.
type refFD struct {
	LHS []int `json:"lhs"`
	RHS int   `json:"rhs"`
}

// refSetJSON renders fds in canonical order through encoding/json,
// compact and indented by prefix and indent "  ".
func refSetJSON(t *testing.T, fds []FD) (compact, indented []byte) {
	t.Helper()
	sorted := slices.Clone(fds)
	sort.SliceStable(sorted, func(i, j int) bool { return refCompare(sorted[i], sorted[j]) < 0 })
	wire := make([]refFD, 0, len(sorted))
	for _, f := range sorted {
		wire = append(wire, refFD{LHS: append([]int{}, f.LHS.Attrs()...), RHS: f.RHS})
	}
	compact, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	indented, err = json.MarshalIndent(wire, "  ", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return compact, indented
}

// randFDs draws n distinct FDs whose attributes spread over every word
// of an AttrSet.
func randFDs(r *rand.Rand, n int) []FD {
	seen := make(map[FD]bool, n)
	out := make([]FD, 0, n)
	for len(out) < n {
		var lhs AttrSet
		for k := r.Intn(6); k > 0; k-- {
			lhs.Add(r.Intn(MaxAttrs))
		}
		f := FD{LHS: lhs, RHS: r.Intn(MaxAttrs)}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	return out
}

// jsonCases are the FD sets the encoder is pinned on: empty, empty
// LHSs, attributes in every word, multi-digit indices and a random set.
func jsonCases() map[string][]FD {
	wide := make([]FD, 0, 7)
	for w := 1; w < NumWords; w++ {
		wide = append(wide, NewFD([]int{64*w - 1, 64 * w, 64*w + 63}, 64*w+7))
	}
	wide = append(wide, NewFD([]int{MaxAttrs - 1}, 0), NewFD(nil, MaxAttrs-1))
	return map[string][]FD{
		"empty":       nil,
		"empty LHS":   {NewFD(nil, 0), NewFD(nil, 3), NewFD([]int{1}, 0)},
		"words 1-5":   wide,
		"small":       {NewFD([]int{3, 1}, 5), NewFD([]int{0, 2}, 5), NewFD([]int{9}, 10), NewFD([]int{10, 99, 100}, 2)},
		"random 1000": randFDs(rand.New(rand.NewSource(7)), 1000),
	}
}

// TestMarshalJSONMatchesReference pins FD.MarshalJSON and
// Set.MarshalJSON to encoding/json's rendering of the same wire shape,
// in canonical order.
func TestMarshalJSONMatchesReference(t *testing.T) {
	for name, fds := range jsonCases() {
		got, err := NewSet(fds...).MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := refSetJSON(t, fds); !bytes.Equal(got, want) {
			t.Errorf("%s: Set.MarshalJSON\n got %s\nwant %s", name, got, want)
		}
		for _, f := range fds {
			got, err := f.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(refFD{LHS: append([]int{}, f.LHS.Attrs()...), RHS: f.RHS})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: FD.MarshalJSON = %s, want %s", name, got, want)
			}
		}
	}
	var nilSet *Set
	for name, s := range map[string]*Set{"nil": nilSet, "zero": {}, "new": NewSet()} {
		got, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "[]" {
			t.Errorf("%s set = %s, want []", name, got)
		}
	}
}

// TestAppendIndentJSONMatchesReference pins the indented writer to
// json.MarshalIndent, and fdLen, which sizes every output buffer, to the
// bytes appendFD writes in both layouts.
func TestAppendIndentJSONMatchesReference(t *testing.T) {
	indented := jsonLayout{colon: ": ", array: "\n  ", fd: "\n    ", key: "\n      ", attr: "\n        "}
	for name, fds := range jsonCases() {
		_, want := refSetJSON(t, fds)
		if got := AppendIndentJSON(nil, NewSet(fds...), "  ", "  "); !bytes.Equal(got, want) {
			t.Errorf("%s: AppendIndentJSON\n got %s\nwant %s", name, got, want)
		}
		for _, f := range append(fds, NewFD(nil, -12), NewFD([]int{9, 10, 99, 100, 383}, 1000)) {
			for _, l := range []jsonLayout{compactJSON, indented} {
				if got := len(l.appendFD(nil, f)); got != l.fdLen(f) {
					t.Errorf("%v: fdLen = %d, appendFD wrote %d bytes", f, l.fdLen(f), got)
				}
			}
		}
	}
	if got := AppendIndentJSON([]byte("x"), nil, "", "\t"); string(got) != "x[]" {
		t.Errorf("empty slice = %q, want x[]", got)
	}
}
