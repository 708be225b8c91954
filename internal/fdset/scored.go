package fdset

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
)

// ScoredFD pairs a functional dependency with an error score under some
// AFD measure (internal/afd). Score is an error, not a confidence: 0
// means the FD holds exactly and larger is worse, so every measure sorts
// the same way regardless of its definition.
type ScoredFD struct {
	FD    FD
	Score float64
}

// String renders the scored FD, e.g. "{0,2} -> 4 (0.0133)".
func (s ScoredFD) String() string {
	return fmt.Sprintf("%s (%.4g)", s.FD, s.Score)
}

// scoredWire extends the fdWire shape with the score, keeping the lhs/rhs
// keys byte-identical to plain FD JSON so clients can share decoders.
type scoredWire struct {
	LHS   []int   `json:"lhs"`
	RHS   int     `json:"rhs"`
	Score float64 `json:"score"`
}

// MarshalJSON encodes the scored FD as {"lhs":[...],"rhs":i,"score":e}.
func (s ScoredFD) MarshalJSON() ([]byte, error) {
	w := scoredWire{LHS: s.FD.LHS.Attrs(), RHS: s.FD.RHS, Score: s.Score}
	if w.LHS == nil {
		w.LHS = []int{}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire shape written by MarshalJSON, with the
// same index-range validation as FD.
func (s *ScoredFD) UnmarshalJSON(data []byte) error {
	var w scoredWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	fdBytes, err := json.Marshal(fdWire{LHS: w.LHS, RHS: w.RHS})
	if err != nil {
		return err
	}
	var f FD
	if err := f.UnmarshalJSON(fdBytes); err != nil {
		return err
	}
	*s = ScoredFD{FD: f, Score: w.Score}
	return nil
}

// SortScoredFDs orders scored FDs canonically, ignoring scores: ascending
// RHS, then LHS cardinality, then attribute order (Compare). Use this
// when the score is an annotation on a result set, e.g. threshold-mode
// AFD output.
func SortScoredFDs(fds []ScoredFD) {
	slices.SortFunc(fds, func(a, b ScoredFD) int { return Compare(a.FD, b.FD) })
}

// SortScoredFDsByScore orders scored FDs by ascending error (best first),
// breaking score ties by the canonical FD order so equal-scored rankings
// are deterministic. Use this for top-k output.
func SortScoredFDsByScore(fds []ScoredFD) {
	slices.SortFunc(fds, func(a, b ScoredFD) int {
		if c := cmp.Compare(a.Score, b.Score); c != 0 {
			return c
		}
		return Compare(a.FD, b.FD)
	})
}
