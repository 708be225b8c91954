// Package quality composes the discovery substrate into an actionable
// data-quality report: which dependencies explain the most redundancy
// (Wan & Han's redundancy-driven ranking over the afd scorer), which
// rows violate them (stable row ids out of the tombstone-aware encoder),
// the minimal value substitutions that would repair each near-FD, and
// normalization advice derived from the exact cover through
// internal/infer's key/BCNF machinery.
//
// Everything here is a pure function of the encoded snapshot and the
// cover: clusters are walked in first-occurrence order, ties break
// canonically, and no map is ever ranged over, so a report is
// byte-identical for any worker count (determinism invariant I1). The
// serving layer relies on that to cache and version reports per
// session snapshot.
package quality

import (
	"context"
	"fmt"

	"eulerfd/internal/afd"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Options bounds the report. The zero value is not meaningful; start
// from DefaultOptions.
type Options struct {
	// TopK is how many redundancy-ranked dependencies the report
	// analyzes. Must be ≥ 1.
	TopK int
	// MaxClusters bounds the violating-cluster examples (and repair
	// steps) reported per dependency; the aggregate tallies always cover
	// every cluster. Must be ≥ 1.
	MaxClusters int
	// MaxRows bounds the row ids listed per cluster example; totals are
	// always exact. Must be ≥ 1.
	MaxRows int
	// CacheSize bounds the partition cache when Analyze has to build its
	// own scorer (< 1 selects the cache default).
	CacheSize int
}

// DefaultOptions returns the bounds shared by the CLIs and fdserve:
// five ranked dependencies, three cluster examples each, five row ids
// per example.
func DefaultOptions() Options {
	return Options{TopK: 5, MaxClusters: 3, MaxRows: 5}
}

// Validate checks every field against its documented range.
func (o Options) Validate() error {
	if o.TopK < 1 {
		return fmt.Errorf("quality: top-k bound %d must be ≥ 1", o.TopK)
	}
	if o.MaxClusters < 1 {
		return fmt.Errorf("quality: cluster example bound %d must be ≥ 1", o.MaxClusters)
	}
	if o.MaxRows < 1 {
		return fmt.Errorf("quality: row example bound %d must be ≥ 1", o.MaxRows)
	}
	if o.CacheSize < 0 {
		return fmt.Errorf("quality: cache size %d must be ≥ 0 (0 means the default)", o.CacheSize)
	}
	return nil
}

// RankedFD is one entry of the redundancy ranking: the dependency, its
// redundancy score (afd.Redundancy: 0 = explains everything, 1 =
// explains nothing), the raw count of RHS cells it makes derivable, and
// whether it holds exactly on the snapshot.
type RankedFD struct {
	FD            fdset.FD `json:"fd"`
	Score         float64  `json:"score"`
	RedundantRows int      `json:"redundant_rows"`
	Exact         bool     `json:"exact"`
}

// ClusterExample is one violating cluster, bounded for the wire: the
// first Options.MaxRows row ids (stable encoder ids, first-occurrence
// order), the full cluster size, and how many distinct RHS values the
// cluster holds.
type ClusterExample struct {
	Rows        []int64 `json:"rows"`
	Size        int     `json:"size"`
	DistinctRHS int     `json:"distinct_rhs"`
}

// FDViolations aggregates one near-FD's violations: the exact g₃
// numerator and violating-cluster count over the whole snapshot, plus
// bounded examples.
type FDViolations struct {
	FD            fdset.FD         `json:"fd"`
	ViolatingRows int              `json:"violating_rows"`
	Clusters      int              `json:"clusters"`
	Examples      []ClusterExample `json:"examples"`
}

// RepairStep is one cluster's substitution: the rows listed (bounded by
// Options.MaxRows; RowsTotal is exact) should adopt the RHS value of
// the Adopt row — the cluster's plurality value, ties broken by first
// occurrence in cluster order.
type RepairStep struct {
	Adopt     int64   `json:"adopt_row"`
	Rows      []int64 `json:"rows"`
	RowsTotal int     `json:"rows_total"`
}

// FDRepair is the minimal value-substitution set making one near-FD
// exact: per violating cluster, rewrite every minority row's RHS to the
// plurality value. Cost is the total number of rows rewritten, which
// equals the dependency's g₃ numerator — no smaller substitution set
// can repair it.
type FDRepair struct {
	FD       fdset.FD     `json:"fd"`
	Cost     int          `json:"cost"`
	Clusters int          `json:"clusters"`
	Steps    []RepairStep `json:"steps"`
}

// ProjectedFD annotates a cover dependency that lands inside one
// fragment of the proposed decomposition with the redundancy it
// explains there.
type ProjectedFD struct {
	FD            fdset.FD `json:"fd"`
	RedundantRows int      `json:"redundant_rows"`
}

// Normalization is the schema advice derived from the exact cover:
// candidate keys, the first BCNF violation (in canonical cover order),
// and the lossless decomposition it induces, with the cover projected
// into each fragment.
type Normalization struct {
	// Keys lists the candidate keys as ascending attribute-index lists.
	// Empty with KeysSkipped set when the key search was skipped: the
	// schema is too wide (internal/infer caps enumeration at 24 columns)
	// or the lattice walk exhausted its work budget.
	Keys        [][]int `json:"keys,omitempty"`
	BCNF        bool    `json:"bcnf"`
	KeysSkipped bool    `json:"keys_skipped,omitempty"`
	// Skipped marks that the whole advice stage was skipped because the
	// cover is too large to reason over inline (closures scan the cover
	// once per fixpoint round); BCNF is not meaningful when set.
	Skipped bool `json:"skipped,omitempty"`
	// Violation is the first cover FD whose LHS is not a superkey;
	// absent when the schema is in BCNF.
	Violation *fdset.FD `json:"violation,omitempty"`
	// Left and Right are the fragments of the lossless decomposition on
	// Violation: left = closure(LHS), right = LHS ∪ (R − closure(LHS)).
	Left  []int `json:"left,omitempty"`
	Right []int `json:"right,omitempty"`
	// LeftFDs and RightFDs are the cover dependencies embedded in each
	// fragment, annotated with the redundancy each explains.
	LeftFDs  []ProjectedFD `json:"left_fds,omitempty"`
	RightFDs []ProjectedFD `json:"right_fds,omitempty"`
}

// Report is the full data-quality report over one snapshot. Field names
// and json tags are a pinned wire shape served at
// /v1/sessions/{id}/quality and emitted by fddiscover -quality.
type Report struct {
	Attrs []string `json:"attrs"`
	Rows  int      `json:"rows"`
	// Version is the session mutation-log version the report was
	// computed at; zero outside the serving layer.
	Version int64 `json:"version,omitempty"`
	K       int   `json:"k"`
	// Ranked is the redundancy-ranked top-k, best (most redundancy
	// explained) first.
	Ranked []RankedFD `json:"ranked"`
	// Violations and Repairs cover the ranked dependencies that do not
	// hold exactly, in ranking order.
	Violations []FDViolations `json:"violations"`
	Repairs    []FDRepair     `json:"repairs"`
	// Normalization advises on the exact cover.
	Normalization Normalization `json:"normalization"`
	// TotalViolatingRows and TotalRepairCost sum the per-dependency
	// tallies above; rows violating several dependencies count once per
	// dependency.
	TotalViolatingRows int `json:"total_violating_rows"`
	TotalRepairCost    int `json:"total_repair_cost"`
}

// Analyze builds the quality report for one encoded snapshot. cover is
// the session's discovered (exact) cover: it seeds the redundancy
// ranking and feeds the normalization advice. scorer may be nil, in
// which case a fresh one is built over enc; passing the session's
// scorer reuses its partition cache across requests. Cancellation is
// honored between pipeline stages and per ranked dependency; a
// cancelled call returns ctx.Err().
func Analyze(ctx context.Context, enc *preprocess.Encoded, cover *fdset.Set, scorer *afd.Scorer, opt Options) (*Report, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if scorer == nil {
		scorer = afd.NewScorer(enc, opt.CacheSize)
	}

	// Stage 1: redundancy ranking. Seeds are the cover's FDs; Rank also
	// probes every one-attribute generalization, so near-FDs that explain
	// more redundancy than their exact specializations surface.
	ranked, err := scorer.Rank(ctx, afd.Redundancy, cover.Slice(), opt.TopK)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Attrs:  enc.Attrs,
		Rows:   enc.NumRows,
		K:      opt.TopK,
		Ranked: make([]RankedFD, 0, len(ranked)),
	}

	// Stages 2+3: per-dependency violation analysis and repair planning,
	// in ranking order. One partition walk serves both.
	sc := preprocess.NewJoinScratch()
	for _, sf := range ranked {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		part := enc.PartitionOfWith(sf.FD.LHS, sc)
		viol, repair, _ := analyzeFD(enc, part, sf.FD, opt.MaxClusters, opt.MaxRows)
		rep.Ranked = append(rep.Ranked, RankedFD{
			FD:    sf.FD,
			Score: sf.Score,
			// analyzeFD counts exactly the non-plurality rows, so this is
			// the redundancy numerator e(π) − g3 that Scorer.RedundantRows
			// would re-derive from the partition cache.
			RedundantRows: part.Error() - viol.ViolatingRows,
			Exact:         viol.ViolatingRows == 0,
		})
		if viol.ViolatingRows > 0 {
			rep.Violations = append(rep.Violations, viol)
			rep.Repairs = append(rep.Repairs, repair)
			rep.TotalViolatingRows += viol.ViolatingRows
			rep.TotalRepairCost += repair.Cost
		}
	}

	// Stage 4: normalization advice from the exact cover.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Normalization = normalize(cover, scorer, len(enc.Attrs))
	return rep, nil
}
