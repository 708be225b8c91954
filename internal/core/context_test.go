package core

import (
	"context"
	"errors"
	"testing"

	"eulerfd/internal/gen"
)

// TestDiscoverContextPreCancelled checks the cancellation contract's
// entry condition: an already-cancelled context returns ctx.Err()
// without comparing a single tuple pair.
func TestDiscoverContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fds, stats, err := DiscoverContext(ctx, patientRelation(), DefaultOptions(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fds != nil {
		t.Errorf("cancelled run returned a non-nil FD set: %v", fds.Slice())
	}
	if stats.PairsCompared != 0 || stats.SampleBatches != 0 {
		t.Errorf("cancelled run did sampling work: %+v", stats)
	}
}

// TestDiscoverContextObserverPhases checks that a completed run reports
// at least one "sampled" and one "inverted" snapshot, with monotonically
// non-decreasing counters, and that observing a run does not change its
// result.
func TestDiscoverContextObserverPhases(t *testing.T) {
	rel := gen.Patient()
	var events []Progress
	obs := func(p Progress) { events = append(events, p) }
	fds, _, err := DiscoverContext(context.Background(), rel, exhaustiveOptions(), obs)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := Discover(rel, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !fds.Equal(plain) {
		t.Errorf("observed run differs from unobserved run:\n%v\nvs\n%v", fds.Slice(), plain.Slice())
	}
	var sampled, inverted int
	last := Progress{}
	for _, p := range events {
		switch p.Phase {
		case "sampled":
			sampled++
		case "inverted":
			inverted++
		default:
			t.Errorf("unknown phase %q", p.Phase)
		}
		if p.PairsCompared < last.PairsCompared || p.NcoverSize < last.NcoverSize {
			t.Errorf("counters went backwards: %+v after %+v", p, last)
		}
		last = p
	}
	if sampled < 1 || inverted < 1 {
		t.Errorf("got %d sampled / %d inverted events, want ≥ 1 of each", sampled, inverted)
	}
}

// TestDiscoverContextCancelMidRun cancels from inside the observer (a
// stage boundary) and checks the run stops with ctx.Err() instead of
// completing.
func TestDiscoverContextCancelMidRun(t *testing.T) {
	rel := gen.FDReduced("cancel-mid", 400, 8, 0xfdc0de)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	obs := func(Progress) {
		events++
		if events == 1 {
			cancel()
		}
	}
	fds, _, err := DiscoverContext(ctx, rel, DefaultOptions(), obs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fds != nil {
		t.Error("cancelled run returned a result")
	}
	if events < 1 {
		t.Error("observer never fired")
	}
}

// TestAppendContextCancelled checks the incremental path: a cancelled
// append batch reports ctx.Err(), and an uncancelled observed append
// batch emits progress.
func TestAppendContextCancelled(t *testing.T) {
	rel := gen.Patient()
	inc, err := NewIncremental("inc", rel.Attrs, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	batch := MutationBatch{Mutations: []Mutation{AppendOp(rel.Rows)}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := inc.ApplyContext(ctx, batch, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled append: err = %v, want context.Canceled", err)
	}
	if inc.NumRows() != 0 {
		t.Errorf("pre-cancelled append absorbed %d rows", inc.NumRows())
	}
	var events int
	if _, err := inc.ApplyContext(context.Background(), batch, func(Progress) { events++ }); err != nil {
		t.Fatal(err)
	}
	if events < 2 {
		t.Errorf("append emitted %d progress events, want ≥ 2", events)
	}
}

// TestOptionsValidate exercises the typed field errors.
func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options invalid: %v", err)
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options invalid: %v", err)
	}
	cases := []struct {
		field string
		mut   func(*Options)
	}{
		{"ThNcover", func(o *Options) { o.ThNcover = -0.1 }},
		{"ThPcover", func(o *Options) { o.ThPcover = -1 }},
		{"NumQueues", func(o *Options) { o.NumQueues = -1 }},
		{"Workers", func(o *Options) { o.Workers = -4 }},
	}
	for _, tc := range cases {
		o := DefaultOptions()
		tc.mut(&o)
		err := o.Validate()
		var oe *OptionError
		if !errors.As(err, &oe) {
			t.Errorf("%s: err = %v, want *OptionError", tc.field, err)
			continue
		}
		if oe.Field != tc.field {
			t.Errorf("error names field %q, want %q", oe.Field, tc.field)
		}
		// The invalid configuration must be refused by the entry points.
		if _, _, derr := Discover(patientRelation(), o); derr == nil {
			t.Errorf("%s: Discover accepted invalid options", tc.field)
		}
		if _, nerr := NewIncremental("x", []string{"A"}, o); nerr == nil {
			t.Errorf("%s: NewIncremental accepted invalid options", tc.field)
		}
	}
}
