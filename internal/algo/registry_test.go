package algo

import (
	"context"
	"errors"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/gen"
	"eulerfd/internal/naive"
	"eulerfd/internal/preprocess"
)

// FuzzRegistryExact decodes bytes into a small relation — data[0] picks
// 1–6 columns, data[1] a domain of 1–3 values, and every following byte
// one cell, up to 12 rows — and checks every registered exact algorithm
// against the brute-force oracle.
func FuzzRegistryExact(f *testing.F) {
	f.Add([]byte{2, 2, 0, 1, 1, 0, 1, 1, 0, 0})
	f.Add([]byte{5, 1, 0, 1, 2, 0, 1, 2, 1, 2, 0, 1, 2, 0, 1, 1, 2, 0})
	f.Add([]byte{0, 0})
	f.Add([]byte{3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cols, domain := int(data[0])%6+1, int(data[1])%3+1
		cells := data[2:]
		attrs := make([]string, cols)
		for i := range attrs {
			attrs[i] = string(rune('A' + i))
		}
		rows := make([][]string, min(12, len(cells)/cols))
		for i := range rows {
			rows[i] = make([]string, cols)
			for j := range rows[i] {
				rows[i][j] = string(rune('a' + int(cells[i*cols+j])%domain))
			}
		}
		rel, err := dataset.New("fuzz", attrs, rows)
		if err != nil {
			t.Fatal(err)
		}
		enc := preprocess.Encode(rel)
		want := naive.DiscoverEncoded(enc)
		for _, info := range List() {
			if !info.Exact {
				continue
			}
			got, _, err := RunEncoded(context.Background(), info.ID, enc, DefaultTuning())
			if err != nil {
				t.Fatalf("%s: %v", info.ID, err)
			}
			if !got.Equal(want) {
				t.Fatalf("%s on %d×%d rows %v:\ngot  %v\nwant %v", info.ID, len(rows), cols, rows, got.Slice(), want.Slice())
			}
		}
	})
}

// TestRunRejectsMalformed: Run validates the relation before dispatch,
// so no algorithm ever sees a ragged row.
func TestRunRejectsMalformed(t *testing.T) {
	bad := &dataset.Relation{Attrs: []string{"A"}, Rows: [][]string{{"1", "2"}}}
	for _, id := range IDs() {
		t.Run(string(id), func(t *testing.T) {
			if _, _, err := Run(context.Background(), id, bad, DefaultTuning()); err == nil {
				t.Error("malformed relation accepted")
			}
		})
	}
	if _, _, err := Run(context.Background(), ID("nope"), gen.Patient(), DefaultTuning()); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

// TestRunCancelled: every algorithm returns the context's error when
// started under an already-cancelled context, and completes under a
// live one.
func TestRunCancelled(t *testing.T) {
	rel := gen.Patient()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range IDs() {
		t.Run(string(id), func(t *testing.T) {
			if fds, _, err := Run(ctx, id, rel, DefaultTuning()); !errors.Is(err, context.Canceled) || fds != nil {
				t.Errorf("pre-cancelled run: fds %v, err %v; want no FDs and context.Canceled", fds, err)
			}
			if _, _, err := Run(context.Background(), id, rel, DefaultTuning()); err != nil {
				t.Errorf("live run: %v", err)
			}
		})
	}
}
