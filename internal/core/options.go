package core

import (
	"fmt"
	"math"
)

// OptionError reports an Options field whose value is outside its legal
// range. It names the offending field so callers (CLI flag parsing, the
// fdserve request validator) can point at the exact input to fix.
type OptionError struct {
	Field  string // Options field name, e.g. "NumQueues"
	Value  any    // the rejected value
	Reason string // why it is invalid, e.g. "must be ≥ 0"
}

func (e *OptionError) Error() string {
	return fmt.Sprintf("core: invalid Options.%s = %v: %s", e.Field, e.Value, e.Reason)
}

// Validate checks every Options field against its documented legal range
// and returns a *OptionError naming the first offending field, or nil.
// The zero value of a field always means "use the default" and is legal;
// Validate rejects values that cannot be interpreted at all (negative
// thresholds or counts, NaN). Discover, DiscoverContext, and
// NewIncremental call Validate and refuse to run on an invalid
// configuration instead of silently clamping it.
func (o Options) Validate() error {
	if math.IsNaN(o.ThNcover) || o.ThNcover < 0 {
		return &OptionError{Field: "ThNcover", Value: o.ThNcover, Reason: "growth-rate threshold must be ≥ 0"}
	}
	if math.IsNaN(o.ThPcover) || o.ThPcover < 0 {
		return &OptionError{Field: "ThPcover", Value: o.ThPcover, Reason: "growth-rate threshold must be ≥ 0"}
	}
	if o.NumQueues < 0 {
		return &OptionError{Field: "NumQueues", Value: o.NumQueues, Reason: "MLFQ depth must be ≥ 1 (0 selects the default)"}
	}
	if o.Workers < 0 {
		return &OptionError{Field: "Workers", Value: o.Workers, Reason: "worker count must be ≥ 0 (0 means GOMAXPROCS)"}
	}
	if math.IsNaN(o.Epsilon) || o.Epsilon < 0 || o.Epsilon > 1 {
		return &OptionError{Field: "Epsilon", Value: o.Epsilon, Reason: "error budget must be in [0, 1]"}
	}
	if o.TopK < 0 {
		return &OptionError{Field: "TopK", Value: o.TopK, Reason: "result bound must be ≥ 0 (0 means threshold mode)"}
	}
	if o.Ensemble < 0 {
		return &OptionError{Field: "Ensemble", Value: o.Ensemble, Reason: "member count must be ≥ 0 (0 means single-run discovery)"}
	}
	return nil
}
