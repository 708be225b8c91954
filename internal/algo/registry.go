// Package algo is the deterministic registry of discovery algorithms.
//
// Every exact and approximate discoverer in the repository is reachable
// through one table keyed by a stable ID, so the CLI, the regression and
// benchmark harnesses, and the HTTP service dispatch through a single
// code path instead of maintaining parallel switch statements. This
// table is the only importer of the baseline packages, each of which
// exports one entry point, DiscoverEncodedContext; Run is where a
// relation is validated. List returns the
// algorithms in a fixed order (EulerFD first, then exact methods, then
// the approximate baselines), never in map order.
package algo

import (
	"context"
	"fmt"

	"eulerfd/internal/afd"
	"eulerfd/internal/aidfd"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/depminer"
	"eulerfd/internal/dfd"
	"eulerfd/internal/ensemble"
	"eulerfd/internal/fastfds"
	"eulerfd/internal/fdep"
	"eulerfd/internal/fdset"
	"eulerfd/internal/fun"
	"eulerfd/internal/hyfd"
	"eulerfd/internal/kivinen"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/tane"
)

// ID names a registered discovery algorithm. The values are stable wire
// identifiers, usable in CLI flags and HTTP requests.
type ID string

// Registered algorithm IDs.
const (
	Euler ID = "euler"
	// EulerEnsemble votes N seeded EulerFD runs (internal/ensemble) and
	// reports the strict-majority FD set; Tuning.Euler.Ensemble sets N
	// (default 5) and Tuning.Euler.Seed the base seed.
	EulerEnsemble ID = "euler-ensemble"
	HyFD          ID = "hyfd"
	TANE          ID = "tane"
	Fun           ID = "fun"
	Dfd           ID = "dfd"
	Fdep          ID = "fdep"
	DepMiner      ID = "depminer"
	FastFDs       ID = "fastfds"
	AIDFD         ID = "aidfd"
	Kivinen       ID = "kivinen"
	AFDg3         ID = "afd-g3"
	AFDTopK       ID = "afd-topk"
	// AFDRedundancy ranks EulerFD-seeded candidates by the redundancy
	// they explain (Wan & Han) instead of raw error: top-k mode with the
	// measure pinned to afd.Redundancy.
	AFDRedundancy ID = "afd-redundancy"
)

// Info describes a registered algorithm.
type Info struct {
	// ID is the stable identifier used for dispatch.
	ID ID `json:"id"`
	// Name is the human-readable algorithm name.
	Name string `json:"name"`
	// Exact reports whether the result is guaranteed exact.
	Exact bool `json:"exact"`
	// Summary is a one-line description of the method.
	Summary string `json:"summary"`
}

// Tuning carries the per-algorithm options the registry dispatches with.
// The zero value defers to each package's own defaulting; DefaultTuning
// fills in the documented paper configurations explicitly.
type Tuning struct {
	Euler   core.Options
	HyFD    hyfd.Options
	AIDFD   aidfd.Options
	Kivinen kivinen.Options
	AFD     afd.Options
}

// DefaultTuning returns every algorithm's default configuration.
func DefaultTuning() Tuning {
	return Tuning{
		Euler:   core.DefaultOptions(),
		HyFD:    hyfd.DefaultOptions(),
		AIDFD:   aidfd.DefaultOptions(),
		Kivinen: kivinen.DefaultOptions(),
		AFD:     afd.DefaultOptions(),
	}
}

type entry struct {
	info Info
	run  func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error)
}

// registry lists the algorithms in presentation order. Order is part of
// the contract: List, the CLI usage string, and the service's
// /algorithms endpoint all reflect it verbatim.
var registry = []entry{
	{
		info: Info{ID: Euler, Name: "EulerFD", Exact: false,
			Summary: "double-cycle sampling and inversion (Lin et al., ICDE 2023)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := core.DiscoverEncodedContext(ctx, enc, t.Euler, nil)
			if err != nil {
				return nil, "", err
			}
			return fds, st.String(), nil
		},
	},
	{
		info: Info{ID: EulerEnsemble, Name: "EulerFD ensemble", Exact: false,
			Summary: "majority vote over seeded EulerFD schedules with g3 cross-check"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			opt := t.Euler
			if opt.Ensemble < 1 {
				opt.Ensemble = 5
			}
			res, err := ensemble.Discover(ctx, enc, ensemble.Config{Euler: opt, CrossCheck: true}, nil)
			if err != nil {
				return nil, "", err
			}
			return res.Majority(), fmt.Sprintf("members=%d seed=%d candidates=%d majority=%d suspects=%d",
				res.Members, res.Seed, res.Stats.Candidates, res.Stats.MajoritySize, res.Stats.Suspects), nil
		},
	},
	{
		info: Info{ID: HyFD, Name: "HyFD", Exact: true,
			Summary: "hybrid sampling + lattice validation (Papenbrock & Naumann, SIGMOD 2016)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := hyfd.DiscoverEncodedContext(ctx, enc, t.HyFD)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("pairs=%d validations=%d switchbacks=%d",
				st.PairsCompared, st.Validations, st.SwitchBacks), nil
		},
	},
	{
		info: Info{ID: TANE, Name: "TANE", Exact: true,
			Summary: "level-wise lattice traversal over stripped partitions (Huhtala et al., 1999)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := tane.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("levels=%d nodes=%d", st.Levels, st.NodesVisited), nil
		},
	},
	{
		info: Info{ID: Fun, Name: "Fun", Exact: true,
			Summary: "free-set lattice traversal (Novelli & Cicchetti, ICDT 2001)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := fun.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("freeSets=%d levels=%d", st.FreeSets, st.Levels), nil
		},
	},
	{
		info: Info{ID: Dfd, Name: "Dfd", Exact: true,
			Summary: "depth-first random-walk lattice traversal (Abedjan et al., CIKM 2014)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := dfd.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("validations=%d walkSteps=%d restarts=%d",
				st.Validations, st.WalkSteps, st.Restarts), nil
		},
	},
	{
		info: Info{ID: Fdep, Name: "Fdep", Exact: true,
			Summary: "full pairwise induction (Flach & Savnik, 1999)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := fdep.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("pairs=%d agreeSets=%d", st.PairsCompared, st.AgreeSets), nil
		},
	},
	{
		info: Info{ID: DepMiner, Name: "Dep-Miner", Exact: true,
			Summary: "agree-set maximization and minimal transversals (Lopes et al., EDBT 2000)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := depminer.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("agreeSets=%d maxSets=%d levels=%d",
				st.AgreeSets, st.MaxSets, st.Levels), nil
		},
	},
	{
		info: Info{ID: FastFDs, Name: "FastFDs", Exact: true,
			Summary: "depth-first minimal covers over difference sets (Wyss et al., DaWaK 2001)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := fastfds.DiscoverEncodedContext(ctx, enc)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("diffSets=%d searchNodes=%d", st.DiffSets, st.SearchNodes), nil
		},
	},
	{
		info: Info{ID: AIDFD, Name: "AID-FD", Exact: false,
			Summary: "interval tuple sampling with terminal inversion (Bleifuß et al., CIKM 2016)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := aidfd.DiscoverEncodedContext(ctx, enc, t.AIDFD)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("pairs=%d rounds=%d ncover=%d",
				st.PairsCompared, st.Rounds, st.NcoverSize), nil
		},
	},
	{
		info: Info{ID: Kivinen, Name: "Kivinen-Mannila", Exact: false,
			Summary: "uniform random pair sampling with (ε, δ) guarantees (TCS 1995)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			fds, st, err := kivinen.DiscoverEncodedContext(ctx, enc, t.Kivinen)
			if err != nil {
				return nil, "", err
			}
			return fds, fmt.Sprintf("sample=%d agreeSets=%d", st.SampleSize, st.AgreeSets), nil
		},
	},
	{
		info: Info{ID: AFDg3, Name: "AFD threshold", Exact: false,
			Summary: "approximate FDs under an error budget, level-wise with anti-monotone pruning"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			opt := t.AFD
			opt.TopK = 0 // force threshold mode regardless of tuning
			scored, st, err := afd.Threshold(ctx, enc, opt)
			if err != nil {
				return nil, "", err
			}
			return scoredSet(scored), fmt.Sprintf("measure=%s eps=%g candidates=%d results=%d",
				st.Measure, st.Epsilon, st.Candidates, st.Results), nil
		},
	},
	{
		info: Info{ID: AFDTopK, Name: "AFD top-k", Exact: false,
			Summary: "k best-scoring dependencies, EulerFD-seeded and ranked by error measure"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			opt := t.AFD
			opt.Euler = t.Euler
			if opt.TopK < 1 {
				opt.TopK = afd.DefaultOptions().TopK
			}
			scored, st, err := afd.TopK(ctx, enc, opt)
			if err != nil {
				return nil, "", err
			}
			return scoredSet(scored), fmt.Sprintf("measure=%s k=%d scored=%d results=%d",
				st.Measure, st.K, st.Candidates, st.Results), nil
		},
	},
	{
		info: Info{ID: AFDRedundancy, Name: "AFD redundancy top-k", Exact: false,
			Summary: "k dependencies explaining the most redundancy, EulerFD-seeded (Wan & Han)"},
		run: func(ctx context.Context, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
			opt := t.AFD
			opt.Euler = t.Euler
			opt.Measure = afd.Redundancy // the mode's defining choice; tuning cannot override it
			if opt.TopK < 1 {
				opt.TopK = afd.DefaultOptions().TopK
			}
			scored, st, err := afd.TopK(ctx, enc, opt)
			if err != nil {
				return nil, "", err
			}
			return scoredSet(scored), fmt.Sprintf("measure=%s k=%d scored=%d results=%d",
				st.Measure, st.K, st.Candidates, st.Results), nil
		},
	},
}

// scoredSet returns the set of the scored FDs, scores dropped.
func scoredSet(scored []fdset.ScoredFD) *fdset.Set {
	fds := make([]fdset.FD, len(scored))
	for i, sf := range scored {
		fds[i] = sf.FD
	}
	return fdset.NewSet(fds...)
}

// List returns every registered algorithm in presentation order.
func List() []Info {
	out := make([]Info, len(registry))
	for i, e := range registry {
		out[i] = e.info
	}
	return out
}

// Lookup returns the Info for id, or ok = false for unknown IDs.
func Lookup(id ID) (Info, bool) {
	for _, e := range registry {
		if e.info.ID == id {
			return e.info, true
		}
	}
	return Info{}, false
}

// IDs returns the registered identifiers in presentation order.
func IDs() []ID {
	out := make([]ID, len(registry))
	for i, e := range registry {
		out[i] = e.info.ID
	}
	return out
}

// RunEncoded dispatches discovery over a pre-encoded relation and
// returns the FDs plus a one-line per-algorithm statistics detail.
func RunEncoded(ctx context.Context, id ID, enc *preprocess.Encoded, t Tuning) (*fdset.Set, string, error) {
	for _, e := range registry {
		if e.info.ID == id {
			return e.run(ctx, enc, t)
		}
	}
	return nil, "", fmt.Errorf("algo: unknown algorithm %q", id)
}

// Run validates and encodes rel, then dispatches like RunEncoded.
func Run(ctx context.Context, id ID, rel *dataset.Relation, t Tuning) (*fdset.Set, string, error) {
	if _, ok := Lookup(id); !ok {
		return nil, "", fmt.Errorf("algo: unknown algorithm %q", id)
	}
	if err := rel.Validate(); err != nil {
		return nil, "", err
	}
	return RunEncoded(ctx, id, preprocess.Encode(rel), t)
}
