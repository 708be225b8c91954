package afd

import "eulerfd/internal/preprocess"

// ScoreCounts maps the fused tallies of a candidate X → rhs to m's error
// value, so the external tests' canonical ranking oracle can score
// candidates without going through Rank's partition walk.
func (s *Scorer) ScoreCounts(m Measure, mc preprocess.MeasureCounts, rhs int) float64 {
	return s.measureFrom(m, mc, rhs, s.enc.NumRows)
}
