package quality

import (
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// rowID maps a snapshot slot index to its stable external row id. A
// snapshot out of the tombstone-aware encoder carries RowIDs; a one-shot
// preprocess.Encode leaves it nil, in which case the slot index is the
// id.
func rowID(enc *preprocess.Encoded, slot int32) int64 {
	if enc.RowIDs != nil {
		return enc.RowIDs[slot]
	}
	return int64(slot)
}

// PlanStep is one violating cluster's full repair, in snapshot slot
// indices: every row in Rows should adopt the RHS value of Keep (the
// cluster's plurality value; ties break to the value occurring first in
// cluster order). The wire-bounded RepairStep is derived from it.
type PlanStep struct {
	Keep int32
	Rows []int32
}

// Plan computes the complete repair plan for lhs → rhs over enc: one
// PlanStep per violating cluster of π_lhs, clusters in partition order,
// rows in cluster order. Applying every step makes the dependency exact,
// and the total row count equals the g₃ numerator — the minimal number
// of value substitutions that can repair it, since each cluster must end
// up constant on the RHS and keeping the plurality value rewrites the
// fewest rows. An exact dependency yields an empty plan.
func Plan(enc *preprocess.Encoded, lhs fdset.AttrSet, rhs int) []PlanStep {
	part := enc.PartitionOf(lhs)
	var out []PlanStep
	sc := newClusterScratch()
	for _, cluster := range part.Clusters {
		keep, rows, _ := sc.repair(enc, cluster, rhs)
		if len(rows) == 0 {
			continue
		}
		cp := make([]int32, len(rows))
		copy(cp, rows)
		out = append(out, PlanStep{Keep: keep, Rows: cp})
	}
	return out
}

// clusterScratch is the reusable state of the per-cluster repair walk.
// Each Analyze/Plan call owns one — it must not be shared between
// concurrent report computations (fdserve may run several).
type clusterScratch struct {
	cnt  map[int32]int32 // RHS label → row count within the current cluster
	rows []int32         // minority rows of the current cluster
}

func newClusterScratch() *clusterScratch {
	return &clusterScratch{cnt: make(map[int32]int32)}
}

// repair groups one cluster by its RHS labels and returns the plurality
// representative, the minority rows (scratch-backed, valid until the
// next call), and the distinct-label count. The counting map is cleared
// per call and never ranged over, so map order cannot reach any output
// (I1). The plurality winner is found by re-walking the cluster in row
// order, which makes the tie-break canonical: among equally common
// values the one seen first wins, and its first carrier row becomes the
// representative.
func (sc *clusterScratch) repair(enc *preprocess.Encoded, cluster []int32, rhs int) (keep int32, rows []int32, distinct int) {
	clear(sc.cnt)
	lane := enc.Lane(rhs)
	for _, r := range cluster {
		sc.cnt[lane.At(r)]++
	}
	distinct = len(sc.cnt)
	if distinct <= 1 {
		return 0, nil, distinct
	}
	best := int32(0)
	bestLabel := int32(0)
	for _, r := range cluster {
		if c := sc.cnt[lane.At(r)]; c > best {
			best = c
			bestLabel = lane.At(r)
		}
	}
	for _, r := range cluster {
		if lane.At(r) == bestLabel {
			keep = r
			break
		}
	}
	sc.rows = sc.rows[:0]
	for _, r := range cluster {
		if lane.At(r) != bestLabel {
			sc.rows = append(sc.rows, r)
		}
	}
	return keep, sc.rows, distinct
}

// analyzeFD extracts one dependency's violation summary and repair from
// a single walk of part = π_lhs: aggregate tallies are exact over every
// cluster, examples and steps are bounded by maxClusters/maxRows. The
// returned plan (full, unbounded) backs the repair-soundness tests.
func analyzeFD(enc *preprocess.Encoded, part preprocess.StrippedPartition, fd fdset.FD, maxClusters, maxRows int) (FDViolations, FDRepair, []PlanStep) {
	viol := FDViolations{FD: fd}
	repair := FDRepair{FD: fd}
	var plan []PlanStep
	sc := newClusterScratch()
	for _, cluster := range part.Clusters {
		keep, rows, distinct := sc.repair(enc, cluster, fd.RHS)
		if len(rows) == 0 {
			continue
		}
		viol.ViolatingRows += len(rows)
		viol.Clusters++
		repair.Cost += len(rows)
		repair.Clusters++
		cp := make([]int32, len(rows))
		copy(cp, rows)
		plan = append(plan, PlanStep{Keep: keep, Rows: cp})
		if len(viol.Examples) < maxClusters {
			ex := ClusterExample{Size: len(cluster), DistinctRHS: distinct}
			for _, r := range cluster {
				if len(ex.Rows) == maxRows {
					break
				}
				ex.Rows = append(ex.Rows, rowID(enc, r))
			}
			viol.Examples = append(viol.Examples, ex)

			step := RepairStep{Adopt: rowID(enc, keep), RowsTotal: len(rows)}
			for _, r := range rows {
				if len(step.Rows) == maxRows {
					break
				}
				step.Rows = append(step.Rows, rowID(enc, r))
			}
			repair.Steps = append(repair.Steps, step)
		}
	}
	return viol, repair, plan
}
