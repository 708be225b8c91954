package preprocess

// MeasureCounts are the raw per-partition tallies every AFD error measure
// is computed from (internal/afd): how far π_X is from functionally
// determining an attribute A. All counts come out of one pass over the
// stripped partition, grouping each cluster by its A-labels:
//
//   - ViolatingRows is the g₃ numerator: rows that must be removed for
//     X → A to hold exactly. Each X-cluster keeps its plurality A-value;
//     everything else violates (Huhtala et al., Section 2.3).
//   - ViolatingPairs is the g₁ numerator: ordered row pairs (u, v) with
//     u[X] = v[X] but u[A] ≠ v[A] (Kivinen & Mannila). Within a cluster
//     of size c whose A-groups have sizes g₁..g_m this is c² − Σ gᵢ².
//   - GroupSqSum is Σ_clusters Σ_groups gᵢ²/c as an exact float: the
//     stripped-cluster part of pdep(A|X) = Σ_x p(x) Σ_a p(a|x)². Rows in
//     singleton X-clusters each contribute 1 to the full sum; use
//     PdepFrom to fold them back in.
//   - Covered is the number of rows the stripped partition covers
//     (Sum()), needed to account for the dropped singletons.
//   - Clusters is the number of (non-singleton) clusters of π_X. Together
//     with Covered and ViolatingRows it yields the redundancy numerator
//     (Wan & Han): Covered − ViolatingRows − Clusters counts the RHS
//     cells that are derivable from their cluster's plurality value —
//     each cluster keeps one representative row and explains the rest.
//
// Rows in singleton X-clusters can never violate anything, which is why
// stripped partitions lose no information for any of the measures. One
// MeasureCounts carries the numerators of every measure (g3/g1/pdep/tau/
// redundancy), so one partition walk prices any of them; afd.Scorer maps
// the tallies to a measure's error value.
type MeasureCounts struct {
	ViolatingRows  int
	ViolatingPairs int64
	GroupSqSum     float64
	Covered        int
	Clusters       int
}

// RedundantRows is the redundancy numerator: the number of rows whose RHS
// value is explained (derivable) under the repaired dependency — per
// cluster, every row carrying the plurality value except one
// representative. It is always ≥ 0 since each cluster's plurality count
// is ≥ 1.
func (mc MeasureCounts) RedundantRows() int {
	return mc.Covered - mc.ViolatingRows - mc.Clusters
}

// MeasureScratch is the reusable state of the measure kernel. Labels of
// the RHS attribute are dense in [0, NumLabels[a]), so per-cluster
// grouping indexes a counter slice directly instead of hashing into a
// map; touched entries are recorded and sparsely reset, keeping a
// cluster's cost proportional to its size, not to the column
// cardinality. Buffers grow to the relation's high-water mark once —
// steady-state calls allocate nothing. A scratch must not be shared
// between concurrent calls; afd.Scorer hands them out from a sync.Pool.
//
// Invariant between calls: cnt[l] == 0 for every label l.
type MeasureScratch struct {
	cnt     []int32 // per-label row count within the current cluster
	touched []int32 // labels seen in the current cluster, first-occurrence order
}

// NewMeasureScratch returns an empty scratch; buffers grow on first use.
func NewMeasureScratch() *MeasureScratch {
	return &MeasureScratch{}
}

// ensure grows cnt to cover numLabels labels; the grown region is zero,
// matching the between-calls invariant.
func (sc *MeasureScratch) ensure(numLabels int) {
	if len(sc.cnt) < numLabels {
		grown := make([]int32, numLabels)
		copy(grown, sc.cnt)
		sc.cnt = grown
	}
}

// CountViolationsWith tallies MeasureCounts for the dependency X → a
// given the stripped partition part = π_X, reusing sc for all transient
// state. Per cluster the label counters only aggregate order-independent
// scalars (max, sums), and within a cluster the group squares are summed
// in integers before the single float division, keeping GroupSqSum
// independent of summation order (determinism invariant I1 extends to
// float low bits: AFD scores are exact-match gated in the regression
// harness).
//
//fdlint:hotpath
func (e *Encoded) CountViolationsWith(part StrippedPartition, a int, sc *MeasureScratch) MeasureCounts {
	sc.ensure(e.NumLabels[a])
	var mc MeasureCounts
	cnt := sc.cnt
	touched := sc.touched[:0]
	lane := e.Lane(a)
	for _, cluster := range part.Clusters {
		// The plurality count grows monotonically while counting, so it
		// can be tracked here instead of in the reset sweep below — which
		// then only accumulates commutative sums (invariant I1).
		best := int32(0)
		touched = touched[:0]
		for _, r := range cluster {
			l := lane.At(r)
			c := cnt[l] + 1
			cnt[l] = c
			if c == 1 {
				touched = append(touched, l)
			}
			if c > best {
				best = c
			}
		}
		var sqSum int64
		for _, l := range touched {
			c := int64(cnt[l])
			sqSum += c * c
			cnt[l] = 0 // restore the between-calls invariant
		}
		size := int64(len(cluster))
		mc.ViolatingRows += len(cluster) - int(best)
		mc.ViolatingPairs += size*size - sqSum
		mc.GroupSqSum += float64(sqSum) / float64(size)
		mc.Covered += len(cluster)
		mc.Clusters++
	}
	sc.touched = touched[:0]
	return mc
}

// CountViolations is CountViolationsWith with a transient scratch, for
// one-off callers outside a scoring loop.
func (e *Encoded) CountViolations(part StrippedPartition, a int) MeasureCounts {
	return e.CountViolationsWith(part, a, NewMeasureScratch())
}

// PdepFrom assembles pdep(A|X) ∈ (0, 1] from the counts of π_X over a
// relation of numRows rows: the probability that two tuples drawn with
// replacement from the same X-cluster agree on A, weighted by cluster
// mass. Singleton X-clusters (numRows − Covered of them) determine A
// trivially and contribute 1/numRows each. pdep is 1 exactly when X → A
// holds.
func (mc MeasureCounts) PdepFrom(numRows int) float64 {
	if numRows == 0 {
		return 1
	}
	return (mc.GroupSqSum + float64(numRows-mc.Covered)) / float64(numRows)
}
