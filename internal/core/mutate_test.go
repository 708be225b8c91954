package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/naive"
)

// mutationModel mirrors an Incremental's relation in plain slices so tests
// can hand the final state to the brute-force oracle.
type mutationModel struct {
	attrs  []string
	rows   [][]string
	ids    []int64
	nextID int64
}

func (m *mutationModel) append(rows [][]string) {
	for _, row := range rows {
		m.rows = append(m.rows, row)
		m.ids = append(m.ids, m.nextID)
		m.nextID++
	}
}

func (m *mutationModel) delete(id int64) {
	for i, x := range m.ids {
		if x == id {
			m.rows = append(m.rows[:i], m.rows[i+1:]...)
			m.ids = append(m.ids[:i], m.ids[i+1:]...)
			return
		}
	}
}

func (m *mutationModel) update(id int64, row []string) {
	for i, x := range m.ids {
		if x == id {
			m.rows[i] = row
			return
		}
	}
}

func (m *mutationModel) relation(t *testing.T) *dataset.Relation {
	t.Helper()
	return dataset.MustNew("t", m.attrs, m.rows)
}

func randomRow(r *rand.Rand, cols, domain int) []string {
	row := make([]string, cols)
	for j := range row {
		row[j] = string(rune('a' + r.Intn(domain)))
	}
	return row
}

// randomBatch builds one mutation batch against the model, applying it to
// the model as it goes so id references stay valid, including references
// to rows appended earlier in the same batch.
func randomBatch(r *rand.Rand, m *mutationModel, domain int) MutationBatch {
	var batch MutationBatch
	ops := 1 + r.Intn(3)
	for o := 0; o < ops; o++ {
		switch k := r.Intn(3); {
		case k == 0 || len(m.ids) < 3:
			n := 1 + r.Intn(4)
			rows := make([][]string, n)
			for i := range rows {
				rows[i] = randomRow(r, len(m.attrs), domain)
			}
			batch.Mutations = append(batch.Mutations, AppendOp(rows))
			m.append(rows)
		case k == 1:
			n := 1 + r.Intn(2)
			var ids []int64
			for i := 0; i < n && len(m.ids) > 2; i++ {
				id := m.ids[r.Intn(len(m.ids))]
				ids = append(ids, id)
				m.delete(id)
			}
			if len(ids) > 0 {
				batch.Mutations = append(batch.Mutations, DeleteOp(ids...))
			}
		default:
			id := m.ids[r.Intn(len(m.ids))]
			row := randomRow(r, len(m.attrs), domain)
			batch.Mutations = append(batch.Mutations, UpdateOp([]int64{id}, [][]string{row}))
			m.update(id, row)
		}
	}
	return batch
}

// TestApplyExhaustiveMatchesFresh is the correctness anchor of incremental
// maintenance: under exhaustive windows, any sequence of append, delete,
// and update batches must leave exactly the minimal cover of the final
// relation — the result of fresh exhaustive discovery, which equals the
// brute-force oracle.
func TestApplyExhaustiveMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(271))
	for iter := 0; iter < 20; iter++ {
		cols := 2 + r.Intn(5)
		domain := 1 + r.Intn(4)
		m := &mutationModel{attrs: make([]string, cols)}
		for i := range m.attrs {
			m.attrs[i] = string(rune('A' + i))
		}
		inc, err := NewIncremental("t", m.attrs, exhaustiveOptions())
		if err != nil {
			t.Fatal(err)
		}
		base := make([][]string, 6+r.Intn(20))
		for i := range base {
			base[i] = randomRow(r, cols, domain)
		}
		m.append(base)
		if _, err := inc.Append(base); err != nil {
			t.Fatal(err)
		}
		batches := 2 + r.Intn(4)
		for bi := 0; bi < batches; bi++ {
			batch := randomBatch(r, m, domain)
			if _, err := inc.Apply(batch); err != nil {
				t.Fatalf("iter %d batch %d: %v", iter, bi, err)
			}
			got := inc.FDs()
			want := naive.Discover(m.relation(t))
			if !got.Equal(want) {
				t.Fatalf("iter %d batch %d (%d rows):\ngot  %v\nwant %v",
					iter, bi, len(m.rows), got.Slice(), want.Slice())
			}
			if inc.NumRows() != len(m.rows) {
				t.Fatalf("iter %d batch %d: %d rows, model has %d", iter, bi, inc.NumRows(), len(m.rows))
			}
		}
		if inc.Version() != int64(batches+1) {
			t.Errorf("iter %d: version %d after %d batches", iter, inc.Version(), batches+1)
		}
	}
}

// TestApplyCompactionPreservesExactness drives the tombstone share over an
// aggressive compaction threshold and checks results stay exact across the
// spine rebuild (ids must survive and stay addressable).
func TestApplyCompactionPreservesExactness(t *testing.T) {
	r := rand.New(rand.NewSource(277))
	m := &mutationModel{attrs: []string{"A", "B", "C"}}
	inc, err := NewIncremental("t", m.attrs, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc.encoder.SetCompaction(0.1, 8)
	base := make([][]string, 30)
	for i := range base {
		base[i] = randomRow(r, 3, 3)
	}
	m.append(base)
	if _, err := inc.Append(base); err != nil {
		t.Fatal(err)
	}
	for bi := 0; bi < 6; bi++ {
		// Delete two rows, update one, append one — churn that keeps
		// crossing the 10% tombstone threshold.
		ids := []int64{m.ids[r.Intn(len(m.ids))]}
		m.delete(ids[0])
		id2 := m.ids[r.Intn(len(m.ids))]
		ids = append(ids, id2)
		m.delete(id2)
		up := m.ids[r.Intn(len(m.ids))]
		upRow := randomRow(r, 3, 3)
		m.update(up, upRow)
		ap := randomRow(r, 3, 3)
		m.append([][]string{ap})
		batch := MutationBatch{Mutations: []Mutation{
			DeleteOp(ids...),
			UpdateOp([]int64{up}, [][]string{upRow}),
			AppendOp([][]string{ap}),
		}}
		if _, err := inc.Apply(batch); err != nil {
			t.Fatalf("batch %d: %v", bi, err)
		}
		got, want := inc.FDs(), naive.Discover(m.relation(t))
		if !got.Equal(want) {
			t.Fatalf("batch %d:\ngot  %v\nwant %v", bi, got.Slice(), want.Slice())
		}
	}
	if inc.encoderCompactions() == 0 {
		t.Error("compaction never triggered despite aggressive thresholds")
	}
}

// encoderCompactions exposes the compaction counter to tests.
func (inc *Incremental) encoderCompactions() int { return inc.encoder.Compactions }

// TestApplyDeterministicAcrossWorkers replays one mutation sequence under
// several worker counts: the resulting covers must be identical (the
// parallel delta scan merges chunks in position order and every parallel
// cover stage merges deterministically).
func TestApplyDeterministicAcrossWorkers(t *testing.T) {
	build := func(workers int) *fdset.Set {
		r := rand.New(rand.NewSource(283))
		m := &mutationModel{attrs: []string{"A", "B", "C", "D"}}
		opt := exhaustiveOptions()
		opt.Workers = workers
		inc, err := NewIncremental("t", m.attrs, opt)
		if err != nil {
			t.Fatal(err)
		}
		base := make([][]string, 40)
		for i := range base {
			base[i] = randomRow(r, 4, 3)
		}
		m.append(base)
		if _, err := inc.Append(base); err != nil {
			t.Fatal(err)
		}
		for bi := 0; bi < 5; bi++ {
			if _, err := inc.Apply(randomBatch(r, m, 3)); err != nil {
				t.Fatal(err)
			}
		}
		return inc.FDs()
	}
	want := build(1)
	for _, workers := range []int{2, 4, 7} {
		if got := build(workers); !got.Equal(want) {
			t.Fatalf("workers=%d diverged:\ngot  %v\nwant %v", workers, got.Slice(), want.Slice())
		}
	}
}

// TestApplySameBatchAddressing appends rows and deletes/updates them by
// their predicted ids within the same batch.
func TestApplySameBatchAddressing(t *testing.T) {
	inc, err := NewIncremental("t", []string{"A", "B"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append([][]string{{"x", "1"}, {"y", "2"}}); err != nil {
		t.Fatal(err)
	}
	// Ids 0,1 exist; the batch appends ids 2,3, rewrites 3, deletes 2.
	batch := MutationBatch{Mutations: []Mutation{
		AppendOp([][]string{{"z", "3"}, {"w", "4"}}),
		UpdateOp([]int64{3}, [][]string{{"w", "5"}}),
		DeleteOp(2),
	}}
	if _, err := inc.Apply(batch); err != nil {
		t.Fatal(err)
	}
	rel := dataset.MustNew("t", []string{"A", "B"},
		[][]string{{"x", "1"}, {"y", "2"}, {"w", "5"}})
	if got, want := inc.FDs(), naive.Discover(rel); !got.Equal(want) {
		t.Fatalf("got %v want %v", got.Slice(), want.Slice())
	}
	if inc.NextID() != 4 {
		t.Errorf("NextID = %d, want 4", inc.NextID())
	}
	// The deleted predicted id must not be addressable afterwards.
	if _, err := inc.Delete([]int64{2}); err == nil {
		t.Fatal("deleting an already-deleted row succeeded")
	}
}

// TestApplyBadIDsRollBack exercises MutationError cases; each failure must
// leave the Incremental at its previous version with its result intact.
func TestApplyBadIDsRollBack(t *testing.T) {
	inc, err := NewIncremental("t", []string{"A", "B"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append([][]string{{"x", "1"}, {"y", "2"}, {"z", "3"}}); err != nil {
		t.Fatal(err)
	}
	before := inc.FDs()
	version := inc.Version()
	cases := []MutationBatch{
		{Mutations: []Mutation{DeleteOp(99)}},                                                // unknown id
		{Mutations: []Mutation{DeleteOp(0), DeleteOp(0)}},                                    // double delete
		{Mutations: []Mutation{AppendOp([][]string{{"q", "7"}}), DeleteOp(0), DeleteOp(99)}}, // partial batch fails late
		{Mutations: []Mutation{UpdateOp([]int64{50}, [][]string{{"a", "b"}})}},
		{Mutations: []Mutation{{Op: "upsert"}}},                                      // unknown op
		{Mutations: []Mutation{{Op: OpAppend, Rows: [][]string{{"only-one-cell"}}}}}, // width
	}
	for i, batch := range cases {
		_, err := inc.Apply(batch)
		if err == nil {
			t.Fatalf("case %d: bad batch accepted", i)
		}
		var merr *MutationError
		if !errors.As(err, &merr) {
			t.Fatalf("case %d: error %T is not *MutationError: %v", i, err, err)
		}
		if inc.Version() != version {
			t.Fatalf("case %d: version moved to %d", i, inc.Version())
		}
		if !inc.FDs().Equal(before) {
			t.Fatalf("case %d: result changed after failed batch", i)
		}
	}
	// The relation must still accept a good batch and stay exact.
	if _, err := inc.Delete([]int64{1}); err != nil {
		t.Fatal(err)
	}
	rel := dataset.MustNew("t", []string{"A", "B"}, [][]string{{"x", "1"}, {"z", "3"}})
	if got, want := inc.FDs(), naive.Discover(rel); !got.Equal(want) {
		t.Fatalf("got %v want %v", got.Slice(), want.Slice())
	}
}

// TestApplyCancelRollsBack cancels a delta batch from its "sampled"
// progress snapshot — after the full scan, at the last checkpoint before
// the commit — and checks the session state rolls back to the committed
// version, then accepts and exactly applies a retry.
func TestApplyCancelRollsBack(t *testing.T) {
	inc, err := NewIncremental("t", []string{"A", "B", "C"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	base := [][]string{{"x", "1", "p"}, {"y", "2", "q"}, {"x", "3", "q"}, {"z", "1", "p"}}
	if _, err := inc.Append(base); err != nil {
		t.Fatal(err)
	}
	before := inc.FDs()
	batch := MutationBatch{Mutations: []Mutation{
		DeleteOp(1),
		AppendOp([][]string{{"w", "4", "r"}}),
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = inc.ApplyContext(ctx, batch, func(p Progress) {
		if p.Phase == "sampled" {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if inc.Version() != 1 || inc.Poisoned() {
		t.Fatalf("cancelled delta batch moved state: version=%d poisoned=%v", inc.Version(), inc.Poisoned())
	}
	if !inc.FDs().Equal(before) {
		t.Fatal("cancelled delta batch changed the result")
	}
	// Retrying the identical batch must commit and be exact.
	if _, err := inc.Apply(batch); err != nil {
		t.Fatal(err)
	}
	rel := dataset.MustNew("t", []string{"A", "B", "C"},
		[][]string{{"x", "1", "p"}, {"x", "3", "q"}, {"z", "1", "p"}, {"w", "4", "r"}})
	if got, want := inc.FDs(), naive.Discover(rel); !got.Equal(want) {
		t.Fatalf("got %v want %v", got.Slice(), want.Slice())
	}
}

// TestApplyWideningCancelAndCommit runs a delta batch whose staged values
// push column A past 2^8 labels, so packing them widens the encoder's
// lanes mid-batch: a base row is scanned out before the widening, a
// staged row packed before it is repacked, and a base row is rewritten
// after it. Cancelled, the batch leaves version, cover and dictionary
// sizes unchanged; committed, it matches a fresh exhaustive Incremental
// over the same rows.
func TestApplyWideningCancelAndCommit(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	var base [][]string
	for i := 0; i < 1<<8; i++ {
		base = append(base, []string{fmt.Sprintf("a%d", i), fmt.Sprint(i % 5), fmt.Sprint(i * 7 % 3)})
	}
	inc, err := NewIncremental("t", attrs, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(base); err != nil {
		t.Fatal(err)
	}
	if w := inc.encoder.LaneWidth(); w != 8 {
		t.Fatalf("lane width %d after 2^8 labels, want 8", w)
	}
	before, labels := inc.FDs(), inc.Snapshot().NumLabels
	batch := MutationBatch{Mutations: []Mutation{
		DeleteOp(3),
		AppendOp([][]string{{"a1", "0", "0"}, {"n0", "1", "2"}}), // the second row widens
		UpdateOp([]int64{5, 256}, [][]string{{"n1", "2", "1"}, {"a7", "4", "0"}}),
	}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = inc.ApplyContext(ctx, batch, func(p Progress) {
		if p.Phase == "sampled" {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if w := inc.encoder.LaneWidth(); w != 16 {
		t.Fatalf("lane width %d after staging label 2^8, want 16", w)
	}
	if inc.Version() != 1 || !inc.FDs().Equal(before) {
		t.Fatalf("cancelled widening batch moved state: version=%d", inc.Version())
	}
	if got := inc.Snapshot().NumLabels; fmt.Sprint(got) != fmt.Sprint(labels) {
		t.Fatalf("cancelled batch grew the dictionaries: %v, want %v", got, labels)
	}

	if _, err := inc.Apply(batch); err != nil {
		t.Fatal(err)
	}
	var rows [][]string
	for id, row := range base {
		switch id {
		case 3:
		case 5:
			rows = append(rows, []string{"n1", "2", "1"})
		default:
			rows = append(rows, row)
		}
	}
	rows = append(rows, []string{"a7", "4", "0"}, []string{"n0", "1", "2"})
	fresh, err := NewIncremental("t", attrs, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Append(rows); err != nil {
		t.Fatal(err)
	}
	if got, want := inc.FDs(), fresh.FDs(); !got.Equal(want) {
		t.Fatalf("committed widening batch: got %v want %v", got.Slice(), want.Slice())
	}
}

// TestApplyCancelledBootstrapPoisons cancels the first batch mid-run: the
// Incremental must refuse all further work with ErrPoisoned.
func TestApplyCancelledBootstrapPoisons(t *testing.T) {
	inc, err := NewIncremental("t", []string{"A", "B"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = inc.ApplyContext(ctx, MutationBatch{Mutations: []Mutation{AppendOp([][]string{{"x", "1"}, {"y", "2"}, {"x", "2"}})}}, func(p Progress) {
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !inc.Poisoned() {
		t.Fatal("cancelled bootstrap did not poison")
	}
	if _, err := inc.Append([][]string{{"z", "3"}}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("append after poisoned bootstrap: %v, want ErrPoisoned", err)
	}
	if _, err := inc.Delete([]int64{0}); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("delete after poisoned bootstrap: %v, want ErrPoisoned", err)
	}
}

// TestApplyConstantColumnCollapse deletes until a column becomes constant
// (∅ → A must appear) and updates it back to varying (it must vanish).
func TestApplyConstantColumnCollapse(t *testing.T) {
	inc, err := NewIncremental("t", []string{"A", "B"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append([][]string{{"x", "1"}, {"x", "2"}, {"y", "3"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Delete([]int64{2}); err != nil { // drops the only "y"
		t.Fatal(err)
	}
	rel := dataset.MustNew("t", []string{"A", "B"}, [][]string{{"x", "1"}, {"x", "2"}})
	if got, want := inc.FDs(), naive.Discover(rel); !got.Equal(want) {
		t.Fatalf("after collapse: got %v want %v", got.Slice(), want.Slice())
	}
	if !inc.FDs().Contains(fdset.FD{LHS: fdset.EmptySet(), RHS: 0}) {
		t.Fatalf("constant column not re-seeded: %v", inc.FDs().Slice())
	}
	if _, err := inc.Update(1, []string{"q", "2"}); err != nil { // varies again
		t.Fatal(err)
	}
	rel = dataset.MustNew("t", []string{"A", "B"}, [][]string{{"x", "1"}, {"q", "2"}})
	if got, want := inc.FDs(), naive.Discover(rel); !got.Equal(want) {
		t.Fatalf("after flip back: got %v want %v", got.Slice(), want.Slice())
	}
}

// TestApplyDeleteToEmpty deletes every row: all columns are vacuously
// constant, so the cover must be exactly {∅ → A} per attribute, matching
// fresh discovery of an empty relation.
func TestApplyDeleteToEmpty(t *testing.T) {
	inc, err := NewIncremental("t", []string{"A", "B"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append([][]string{{"x", "1"}, {"y", "2"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Delete([]int64{0, 1}); err != nil {
		t.Fatal(err)
	}
	if inc.NumRows() != 0 {
		t.Fatalf("rows = %d", inc.NumRows())
	}
	want := fdset.NewSet()
	want.Add(fdset.FD{LHS: fdset.EmptySet(), RHS: 0})
	want.Add(fdset.FD{LHS: fdset.EmptySet(), RHS: 1})
	if got := inc.FDs(); !got.Equal(want) {
		t.Fatalf("got %v want %v", got.Slice(), want.Slice())
	}
	// And rows can come back.
	if _, err := inc.Append([][]string{{"a", "9"}, {"b", "9"}}); err != nil {
		t.Fatal(err)
	}
	rel := dataset.MustNew("t", []string{"A", "B"}, [][]string{{"a", "9"}, {"b", "9"}})
	if got, want := inc.FDs(), naive.Discover(rel); !got.Equal(want) {
		t.Fatalf("after refill: got %v want %v", got.Slice(), want.Slice())
	}
}

// TestApplyFirstBatchRules checks the bootstrap-path contract of
// ApplyContext: append-only batches bootstrap, anything else is rejected.
func TestApplyFirstBatchRules(t *testing.T) {
	inc, err := NewIncremental("t", []string{"A"}, exhaustiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(MutationBatch{Mutations: []Mutation{DeleteOp(0)}}); err == nil {
		t.Fatal("delete before bootstrap accepted")
	}
	if inc.Version() != 0 {
		t.Fatalf("version = %d", inc.Version())
	}
	stats, err := inc.Apply(MutationBatch{Mutations: []Mutation{
		AppendOp([][]string{{"x"}}), AppendOp([][]string{{"y"}}),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rows != 2 || inc.Version() != 1 {
		t.Fatalf("rows=%d version=%d", stats.Rows, inc.Version())
	}
}

// TestApplyWitnessOvershoot zeroes the tally of the one pair agreeing
// only on A, then deletes a row of that pair. Under ExhaustWindows the
// batch must fail with ErrWitnessOvershoot and commit nothing; with
// sampled tallies the decrement clamps and Stats.Clamped counts it.
func TestApplyWitnessOvershoot(t *testing.T) {
	rows := [][]string{{"a", "x", "1"}, {"a", "y", "2"}, {"b", "y", "3"}}
	for _, exhaustive := range []bool{true, false} {
		opt := DefaultOptions()
		if exhaustive {
			opt = exhaustiveOptions()
		}
		inc, err := NewIncremental("t", []string{"A", "B", "C"}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Append(rows); err != nil {
			t.Fatal(err)
		}
		onlyA := []uint64{1} // three columns: one mask word
		if exhaustive && inc.witness.Get(onlyA) == 0 {
			t.Fatal("exhaustive bootstrap did not tally the pair agreeing on A")
		}
		inc.witness.Put(onlyA, 0)
		version, nextID, fds := inc.Version(), inc.NextID(), inc.FDs()
		stats, err := inc.Delete([]int64{0})
		if !exhaustive {
			if err != nil {
				t.Fatalf("sampled: %v", err)
			}
			if stats.Clamped != 1 {
				t.Fatalf("sampled: Clamped = %d, want 1", stats.Clamped)
			}
			continue
		}
		if !errors.Is(err, ErrWitnessOvershoot) {
			t.Fatalf("exhaustive: err = %v, want ErrWitnessOvershoot", err)
		}
		if inc.Version() != version || inc.NextID() != nextID || inc.NumRows() != len(rows) || !inc.FDs().Equal(fds) {
			t.Fatalf("failed batch moved state: version %d→%d, next id %d→%d, rows %d→%d",
				version, inc.Version(), nextID, inc.NextID(), len(rows), inc.NumRows())
		}
	}
}

// TestApplyClampedOnlyWhenSampled replays a sliding window of deletes
// and appends over a weather log. A sampled bootstrap's tallies are
// lower bounds, so deletes overshoot some of them; exact tallies never
// are.
func TestApplyClampedOnlyWhenSampled(t *testing.T) {
	const (
		bootRows = 800
		batches  = 8
		perBatch = 16
	)
	rel := gen.Weather("weather", bootRows+batches*perBatch, 1)
	for _, exhaustive := range []bool{false, true} {
		opt := DefaultOptions()
		if exhaustive {
			opt = exhaustiveOptions()
		}
		inc, err := NewIncremental("weather", rel.Attrs, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inc.Append(rel.Rows[:bootRows]); err != nil {
			t.Fatal(err)
		}
		clamped := 0
		for b := 0; b < batches; b++ {
			ids := make([]int64, perBatch)
			for k := range ids {
				ids[k] = int64(b*perBatch + k)
			}
			from := bootRows + b*perBatch
			st, err := inc.Apply(MutationBatch{Mutations: []Mutation{
				DeleteOp(ids...), AppendOp(rel.Rows[from : from+perBatch]),
			}})
			if err != nil {
				t.Fatalf("exhaustive=%v, batch %d: %v", exhaustive, b, err)
			}
			clamped += st.Clamped
		}
		if exhaustive && clamped != 0 {
			t.Fatalf("exhaustive tallies clamped %d decrements", clamped)
		}
		if !exhaustive && clamped == 0 {
			t.Fatal("sampled tallies never clamped a decrement")
		}
	}
}
