// Package eulerfd discovers functional dependencies (FDs) in relational
// data. It implements EulerFD (Lin et al., ICDE 2023), an efficient
// double-cycle approximate discovery algorithm, together with the exact
// and approximate baselines from the paper's evaluation: TANE, Fdep,
// HyFD, and AID-FD.
//
// # Quick start
//
//	rel, err := eulerfd.ReadCSVFile("people.csv", eulerfd.DefaultCSVOptions())
//	if err != nil { ... }
//	result, err := eulerfd.Discover(rel, eulerfd.DefaultOptions())
//	if err != nil { ... }
//	for _, fd := range result.FDs.Slice() {
//	    fmt.Println(fd.Format(rel.Attrs))
//	}
//
// EulerFD is approximate: it induces FDs from sampled violations and may
// return a slightly over-general result on adversarial data, but it is
// orders of magnitude faster than exact discovery on large relations.
// Use Exact for a guaranteed-exact answer (HyFD under the hood), or set
// Options.ExhaustWindows to make EulerFD itself exhaustive.
//
// Every discoverer is registered under a stable AlgoID: Algorithms lists
// them and DiscoverWith(ctx, id, rel) dispatches by ID. The Context
// variants (DiscoverContext, ExactContext) honor cancellation
// cooperatively at algorithm stage boundaries, so a run that completes
// is identical to an uncancelled one; cmd/fdserve builds an HTTP
// discovery service on top of them.
package eulerfd

import (
	"context"
	"fmt"
	"io"

	"eulerfd/internal/afd"
	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/ensemble"
	"eulerfd/internal/fdset"
	"eulerfd/internal/infer"
	"eulerfd/internal/metrics"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/quality"
)

// Re-exported value types. FD is a dependency LHS → RHS over attribute
// indices; AttrSet is a bitset of attribute indices; Set is a collection
// of FDs; Relation is string-valued tabular data.
type (
	// FD is a functional dependency: the attributes in LHS jointly
	// determine the attribute RHS.
	FD = fdset.FD
	// AttrSet is a set of attribute indices.
	AttrSet = fdset.AttrSet
	// Set is a set of FDs, always in canonical order. Its ForEach walks
	// the set in place: the callback must not add to or remove from it.
	Set = fdset.Set
	// Relation is an in-memory relational instance.
	Relation = dataset.Relation
	// CSVOptions controls CSV parsing.
	CSVOptions = dataset.CSVOptions
	// Options configures the EulerFD algorithm.
	Options = core.Options
	// Stats describes the work performed by a discovery run.
	Stats = core.Stats
	// Progress is a point-in-time snapshot of a running discovery,
	// emitted at cycle boundaries.
	Progress = core.Progress
	// Observer receives Progress snapshots during a discovery run.
	Observer = core.Observer
	// Accuracy reports precision/recall/F1 against a reference FD set.
	Accuracy = metrics.Result
	// AlgoID names a registered discovery algorithm.
	AlgoID = algo.ID
	// AlgoInfo describes a registered discovery algorithm.
	AlgoInfo = algo.Info
	// Measure names an AFD error measure (g3, g1, pdep, tau).
	Measure = afd.Measure
	// ScoredFD pairs a dependency with its error under a Measure; 0
	// means the dependency holds exactly.
	ScoredFD = fdset.ScoredFD
	// ApproxStats describes the work performed by an approximate
	// (AFD) discovery run.
	ApproxStats = afd.Stats
)

// Supported AFD error measures, usable with DiscoverApprox.
const (
	// MeasureG3 is the minimum fraction of rows to remove for the FD to
	// hold exactly — the default measure.
	MeasureG3 = afd.G3
	// MeasureG1 is the fraction of ordered row pairs violating the FD.
	MeasureG1 = afd.G1
	// MeasurePdep is 1 − pdep(A|X), a pair-agreement probability.
	MeasurePdep = afd.Pdep
	// MeasureTau is 1 − τ(X→A), pdep normalized against A's marginal.
	MeasureTau = afd.Tau
	// MeasureRedundancy ranks dependencies by the redundancy they
	// explain (Wan & Han): 1 − red(X→A)/(n−1), oriented as an error.
	// Top-k only — it is not anti-monotone.
	MeasureRedundancy = afd.Redundancy
)

// ParseMeasure maps a user-supplied measure name (CLI flag, query
// parameter) to a Measure; an empty string selects g3.
func ParseMeasure(s string) (Measure, error) { return afd.ParseMeasure(s) }

// Registered algorithm IDs, usable with DiscoverWith and ExactContext.
const (
	AlgoEuler         = algo.Euler
	AlgoEulerEnsemble = algo.EulerEnsemble

	AlgoHyFD          = algo.HyFD
	AlgoTANE          = algo.TANE
	AlgoFun           = algo.Fun
	AlgoDfd           = algo.Dfd
	AlgoFdep          = algo.Fdep
	AlgoDepMiner      = algo.DepMiner
	AlgoFastFDs       = algo.FastFDs
	AlgoAIDFD         = algo.AIDFD
	AlgoKivinen       = algo.Kivinen
	AlgoAFDg3         = algo.AFDg3
	AlgoAFDTopK       = algo.AFDTopK
	AlgoAFDRedundancy = algo.AFDRedundancy
)

// Algorithms lists every registered discovery algorithm in a stable
// presentation order: EulerFD first, then the exact methods, then the
// approximate baselines.
func Algorithms() []AlgoInfo { return algo.List() }

// NewFD builds an FD from LHS attribute indices and an RHS attribute.
func NewFD(lhs []int, rhs int) FD { return fdset.NewFD(lhs, rhs) }

// NewAttrSet builds an attribute set from indices.
func NewAttrSet(attrs ...int) AttrSet { return fdset.NewAttrSet(attrs...) }

// NewRelation builds a validated relation from a schema and rows.
func NewRelation(name string, attrs []string, rows [][]string) (*Relation, error) {
	return dataset.New(name, attrs, rows)
}

// DefaultOptions returns the paper's EulerFD configuration: thresholds
// Th_Ncover = Th_Pcover = 0.01 and a six-queue MLFQ.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultCSVOptions parses comma-separated data with a header row,
// treating "NULL" and "?" as nulls.
func DefaultCSVOptions() CSVOptions { return dataset.DefaultCSVOptions() }

// ReadCSV parses a relation from a reader.
func ReadCSV(name string, r io.Reader, opt CSVOptions) (*Relation, error) {
	return dataset.ReadCSV(name, r, opt)
}

// ReadCSVFile parses a relation from a CSV file.
func ReadCSVFile(path string, opt CSVOptions) (*Relation, error) {
	return dataset.ReadCSVFile(path, opt)
}

// WriteCSVFile writes a relation to a CSV file with a header row.
func WriteCSVFile(path string, r *Relation) error {
	return dataset.WriteCSVFile(path, r)
}

// Result is the outcome of a discovery run: the minimal non-trivial FDs
// found and execution statistics. The json tags define the wire shape
// shared by fddiscover -json, the fdserve HTTP service, and the
// benchmark artifacts: FDs serialize as {"lhs":[indices],"rhs":index}
// objects and Stats durations as integer nanoseconds.
type Result struct {
	// Algo is the registry ID of the algorithm that produced the result.
	Algo AlgoID `json:"algo,omitempty"`
	// FDs holds the minimal non-trivial dependencies found.
	FDs *Set `json:"fds"`
	// Stats describes the work performed.
	Stats Stats `json:"stats"`
}

// Incremental maintains an EulerFD result across relation mutations —
// the DMS deployment pattern, where relations grow by periodic imports
// and are repaired by deletes and row updates. Construct with
// NewIncremental, feed batches with Append, Delete, Update, or Apply,
// and read the current result with FDs. Every committed batch advances
// Version by one; a batch that fails validation or is cancelled before
// its commit point leaves the state untouched (only a cancelled first
// batch — the bootstrap — poisons the instance, see ErrPoisoned).
type Incremental = core.Incremental

// Mutation wire types for the versioned mutation log. A Mutation is one
// operation ("append", "delete", or "update"); a MutationBatch is an
// ordered list applied atomically by Incremental.Apply and by the
// fdserve POST /v1/sessions/{id}/mutations endpoint. The JSON tags
// (op, rows, ids, mutations) are the stable wire shape shared by the
// Go API and the HTTP service.
type (
	// Mutation is one mutation-log operation.
	Mutation = core.Mutation
	// MutationBatch is an atomically-applied ordered list of Mutations.
	MutationBatch = core.MutationBatch
	// MutationError reports the first invalid or unresolvable operation
	// of a rejected batch.
	MutationError = core.MutationError
)

// Mutation op vocabulary, the legal values of Mutation.Op.
const (
	OpAppend = core.OpAppend
	OpDelete = core.OpDelete
	OpUpdate = core.OpUpdate
)

// ErrPoisoned is returned by every method of an Incremental whose
// bootstrap batch was cancelled or failed mid-build: the covers are
// partially built and cannot answer. Discard the instance. Later
// (delta) batches never poison — they roll back instead.
var ErrPoisoned = core.ErrPoisoned

// AppendRows builds an append Mutation from rows.
func AppendRows(rows [][]string) Mutation { return core.AppendOp(rows) }

// DeleteRows builds a delete Mutation addressing rows by id (ids are
// assigned in append order, starting at 0; see Incremental.NextID).
func DeleteRows(ids ...int64) Mutation { return core.DeleteOp(ids...) }

// UpdateRows builds an update Mutation rewriting the row with ids[i] to
// rows[i]; ids keep their values.
func UpdateRows(ids []int64, rows [][]string) Mutation { return core.UpdateOp(ids, rows) }

// NewIncremental prepares incremental EulerFD discovery over a schema.
func NewIncremental(name string, attrs []string, opt Options) (*Incremental, error) {
	return core.NewIncremental(name, attrs, opt)
}

// Discover runs EulerFD on a relation with the given options.
func Discover(rel *Relation, opt Options) (Result, error) {
	return DiscoverContext(context.Background(), rel, opt)
}

// DiscoverContext runs EulerFD under a context. Cancellation is
// cooperative: it is honored at cycle boundaries, so a run that
// completes is byte-for-byte identical to an uncancelled one, and a
// context that is already done returns ctx.Err() before any sampling.
func DiscoverContext(ctx context.Context, rel *Relation, opt Options) (Result, error) {
	return DiscoverObserved(ctx, rel, opt, nil)
}

// DiscoverObserved is DiscoverContext with a Progress observer invoked
// synchronously at cycle boundaries; obs may be nil.
func DiscoverObserved(ctx context.Context, rel *Relation, opt Options, obs Observer) (Result, error) {
	fds, stats, err := core.DiscoverContext(ctx, rel, opt, obs)
	if err != nil {
		return Result{}, err
	}
	return Result{Algo: AlgoEuler, FDs: fds, Stats: stats}, nil
}

// DiscoverWith dispatches discovery through the algorithm registry with
// each algorithm's default configuration. Cancellation is cooperative,
// as in DiscoverContext.
func DiscoverWith(ctx context.Context, id AlgoID, rel *Relation) (*Set, error) {
	fds, _, err := algo.Run(ctx, id, rel, algo.DefaultTuning())
	return fds, err
}

// ExactContext returns the exact set of minimal non-trivial FDs using
// the registered exact algorithm id. It refuses approximate IDs (use
// DiscoverWith for those).
func ExactContext(ctx context.Context, rel *Relation, id AlgoID) (*Set, error) {
	info, ok := algo.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("eulerfd: unknown algorithm %q", id)
	}
	if !info.Exact {
		return nil, fmt.Errorf("eulerfd: algorithm %q is approximate, not exact", id)
	}
	return DiscoverWith(ctx, id, rel)
}

// Exact returns the exact set of minimal non-trivial FDs using the HyFD
// hybrid algorithm, the fastest exact method in this library.
func Exact(rel *Relation) (*Set, error) {
	return ExactContext(context.Background(), rel, AlgoHyFD)
}

// ApproxResult is the outcome of an approximate (AFD) discovery run:
// scored dependencies plus run statistics, with the same wire
// conventions as Result (ScoredFDs serialize as
// {"lhs":[indices],"rhs":index,"score":error} objects).
type ApproxResult struct {
	// Algo is AlgoAFDg3 (threshold mode) or AlgoAFDTopK (top-k mode).
	Algo AlgoID `json:"algo"`
	// Measure is the error measure the scores are under.
	Measure Measure `json:"measure"`
	// FDs holds the scored dependencies: canonical FD order in
	// threshold mode, best-error-first in top-k mode.
	FDs []ScoredFD `json:"fds"`
	// Stats describes the work performed.
	Stats ApproxStats `json:"stats"`
}

// DiscoverApprox finds approximate functional dependencies — FDs that
// hold up to an error budget on dirty data. Options.TopK selects the
// mode: 0 discovers every minimal dependency with error ≤
// Options.Epsilon (threshold mode, measure must be g3 or g1), while K >
// 0 ranks candidates seeded by an EulerFD run and returns the K with
// the lowest error (any measure). Options.Validate governs the field
// ranges; the remaining Options fields tune the seeding double cycle.
func DiscoverApprox(rel *Relation, measure Measure, opt Options) (ApproxResult, error) {
	return DiscoverApproxContext(context.Background(), rel, measure, opt)
}

// DiscoverApproxContext is DiscoverApprox under a context. Cancellation
// is cooperative: between double-cycle stages while seeding, between
// lattice levels in threshold mode, and every few hundred candidates
// while ranking.
func DiscoverApproxContext(ctx context.Context, rel *Relation, measure Measure, opt Options) (ApproxResult, error) {
	if err := rel.Validate(); err != nil {
		return ApproxResult{}, err
	}
	if err := opt.Validate(); err != nil {
		return ApproxResult{}, err
	}
	aopt := afd.DefaultOptions()
	aopt.Measure = measure
	aopt.Epsilon = opt.Epsilon
	aopt.TopK = opt.TopK
	aopt.Euler = opt
	enc := preprocess.Encode(rel)
	if opt.TopK > 0 {
		fds, stats, err := afd.TopK(ctx, enc, aopt)
		if err != nil {
			return ApproxResult{}, err
		}
		return ApproxResult{Algo: AlgoAFDTopK, Measure: aopt.Measure, FDs: fds, Stats: stats}, nil
	}
	fds, stats, err := afd.Threshold(ctx, enc, aopt)
	if err != nil {
		return ApproxResult{}, err
	}
	return ApproxResult{Algo: AlgoAFDg3, Measure: aopt.Measure, FDs: fds, Stats: stats}, nil
}

// Quality re-exports. The quality subsystem (internal/quality) turns a
// discovered cover into an actionable data-quality report: redundancy-
// ranked dependencies, per-dependency violating clusters with stable row
// ids, minimal repair plans, and normalization advice.
type (
	// QualityOptions bounds a quality report (ranked dependencies,
	// cluster examples, row ids per example).
	QualityOptions = quality.Options
	// QualityReport is the full report; its json tags are the pinned
	// wire shape served at /v1/sessions/{id}/quality and emitted by
	// fddiscover -quality.
	QualityReport = quality.Report
)

// DefaultQualityOptions returns the report bounds shared by the CLIs
// and fdserve.
func DefaultQualityOptions() QualityOptions { return quality.DefaultOptions() }

// AnalyzeQuality discovers a cover with EulerFD (opt tunes the double
// cycle) and composes the data-quality report over it: the cover seeds
// a redundancy-ranked top-k, each ranked near-FD gets its violating
// clusters and minimal repair plan, and the cover itself feeds the
// normalization advice. The report is deterministic for any
// Options.Workers value.
func AnalyzeQuality(rel *Relation, opt Options, qopt QualityOptions) (*QualityReport, error) {
	return AnalyzeQualityContext(context.Background(), rel, opt, qopt)
}

// AnalyzeQualityContext is AnalyzeQuality under a context. Cancellation
// is cooperative: at double-cycle stage boundaries while discovering the
// cover, and between pipeline stages and ranked dependencies while
// composing the report.
func AnalyzeQualityContext(ctx context.Context, rel *Relation, opt Options, qopt QualityOptions) (*QualityReport, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := qopt.Validate(); err != nil {
		return nil, err
	}
	enc := preprocess.Encode(rel)
	cover, _, err := core.DiscoverEncodedContext(ctx, enc, opt, nil)
	if err != nil {
		return nil, err
	}
	return quality.Analyze(ctx, enc, cover, nil, qopt)
}

// Ensemble re-exports. EulerFD is a randomized approximation once
// Options.Seed varies; an ensemble runs N seeded schedules and votes, so
// each reported FD carries a confidence instead of arriving in a flat set.
type (
	// EnsembleResult is a completed ensemble run: every voted candidate
	// in canonical order, plus run statistics. Majority() extracts the
	// strict-majority FD set.
	EnsembleResult = ensemble.Result
	// EnsembleFD is one voted candidate: an FD with the fraction of
	// member runs agreeing (Confidence, higher is better — unlike
	// ScoredFD's error score) and its exact g3 cross-check.
	EnsembleFD = ensemble.ScoredFD
	// EnsembleStats describes the work performed by an ensemble run.
	EnsembleStats = ensemble.Stats
	// EnsembleObserver receives (completed, total) member-run progress.
	EnsembleObserver = ensemble.Observer
)

// DiscoverEnsemble runs Options.Ensemble seeded EulerFD members
// concurrently (seeds derive from Options.Seed; member 0 runs the base
// seed itself, so Ensemble = 1 is exactly the plain seeded run) and
// votes: each candidate FD's confidence is the fraction of members whose
// minimal cover implies it, cross-checked against the exact g3 error on
// the full relation — a candidate with g3 > 0 provably does not hold and
// is flagged Suspect. Ensemble ≤ 1 runs a single member. The result is
// deterministic for any Options.Workers value.
func DiscoverEnsemble(rel *Relation, opt Options) (*EnsembleResult, error) {
	return DiscoverEnsembleContext(context.Background(), rel, opt, nil)
}

// DiscoverEnsembleContext is DiscoverEnsemble under a context with an
// optional progress observer (called after each member run completes;
// may be nil). Cancellation is cooperative at members' cycle boundaries;
// a cancelled ensemble returns ctx.Err() and no partial votes.
func DiscoverEnsembleContext(ctx context.Context, rel *Relation, opt Options, obs EnsembleObserver) (*EnsembleResult, error) {
	if err := rel.Validate(); err != nil {
		return nil, err
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	return ensemble.Discover(ctx, preprocess.Encode(rel), ensemble.Config{Euler: opt, CrossCheck: true}, obs)
}

// Evaluate scores a discovered FD set against a reference (typically from
// Exact) as precision, recall, and F1.
func Evaluate(discovered, truth *Set) Accuracy {
	return metrics.Evaluate(discovered, truth)
}

// DependentsOf returns, for a sensitive attribute, every minimal LHS in
// fds that determines it — the DMS data-obfuscation primitive: any such
// LHS is a set of underlying sensitive attributes that must be protected
// alongside the labeled one.
func DependentsOf(fds *Set, sensitive int) []AttrSet {
	var out []AttrSet
	fds.ForEach(func(f FD) {
		if f.RHS == sensitive {
			out = append(out, f.LHS)
		}
	})
	return out
}

// FDDoc is the JSON-friendly rendering of one dependency, with attribute
// names resolved.
type FDDoc struct {
	LHS []string `json:"lhs"`
	RHS string   `json:"rhs"`
}

// Docs renders an FD set against a schema for JSON output, in the
// deterministic order of Set.Slice. Attribute indices outside the schema
// render as "#i".
func Docs(fds *Set, attrs []string) []FDDoc {
	name := func(i int) string {
		if i >= 0 && i < len(attrs) {
			return attrs[i]
		}
		return "#" + fmt.Sprint(i)
	}
	out := make([]FDDoc, 0, fds.Len())
	for _, f := range fds.Slice() {
		doc := FDDoc{RHS: name(f.RHS), LHS: []string{}}
		for _, a := range f.LHS.Attrs() {
			doc.LHS = append(doc.LHS, name(a))
		}
		out = append(out, doc)
	}
	return out
}

// Closure returns x⁺: every attribute determined by x under fds, for a
// schema of ncols attributes.
func Closure(fds *Set, x AttrSet, ncols int) AttrSet {
	return infer.Closure(fds, x, ncols)
}

// Implies reports whether fds logically imply x → a.
func Implies(fds *Set, x AttrSet, a, ncols int) bool {
	return infer.Implies(fds, x, a, ncols)
}

// IsSuperkey reports whether x determines the whole schema under fds.
func IsSuperkey(fds *Set, x AttrSet, ncols int) bool {
	return infer.IsSuperkey(fds, x, ncols)
}

// CandidateKeys enumerates the minimal keys of an ncols-attribute schema
// under fds. It panics beyond 24 attributes (the enumeration is
// exponential in the worst case).
func CandidateKeys(fds *Set, ncols int) []AttrSet {
	return infer.CandidateKeys(fds, ncols)
}

// BCNFViolation returns a discovered FD whose LHS is not a superkey, or
// ok = false when the schema is in Boyce-Codd Normal Form under fds.
func BCNFViolation(fds *Set, ncols int) (FD, bool) {
	return infer.BCNFViolation(fds, ncols)
}

// Decompose splits an ncols-attribute schema along a BCNF-violating FD
// into two lossless fragments (attribute sets).
func Decompose(fds *Set, violation FD, ncols int) (left, right AttrSet) {
	return infer.Decompose(fds, violation, ncols)
}
