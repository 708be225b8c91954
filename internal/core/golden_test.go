package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
)

// coverDigest hashes a cover in canonical order: one line per FD, its
// LHS attributes then its RHS. Sixteen hex digits are plenty to tell
// two covers apart.
func coverDigest(s *fdset.Set) string {
	h := sha256.New()
	var line []byte
	for _, f := range s.Slice() {
		line = line[:0]
		f.LHS.ForEach(func(a int) bool {
			line = strconv.AppendInt(line, int64(a), 10)
			line = append(line, ' ')
			return true
		})
		line = append(line, "->"...)
		line = strconv.AppendInt(line, int64(f.RHS), 10)
		line = append(line, '\n')
		h.Write(line)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// progressLog records the Progress snapshots of one run.
type progressLog []Progress

func (l *progressLog) observe(p Progress) { *l = append(*l, p) }

// digest hashes the snapshots in order, every field included.
func (l progressLog) digest() string {
	h := sha256.New()
	for _, p := range l {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// letterShaped copies the column structure of UCI letter: sixteen
// 16-valued image statistics and a 26-valued class, no planted FDs.
func letterShaped(rows int, seed int64) *dataset.Relation {
	cols := make([]gen.ColSpec, 0, 17)
	for i := 0; i < 16; i++ {
		cols = append(cols, gen.ColSpec{Name: "stat" + string(rune('a'+i)), Kind: gen.NumericBucketed, Domain: 16})
	}
	cols = append(cols, gen.ColSpec{Name: "lettr", Kind: gen.Categorical, Domain: 26})
	return gen.Generate(gen.Profile{Name: "letter", Rows: rows, Cols: cols, Seed: seed})
}

// TestDefaultCoversGolden pins what default (sampling) discovery outputs,
// which no oracle can: a change to the double cycle's bookkeeping must
// leave these covers, and the Progress snapshots that count the work,
// byte-identical. A deliberate change to what the default mode samples or
// admits re-records the digests and says why.
func TestDefaultCoversGolden(t *testing.T) {
	oneShot := []struct {
		name            string
		rel             *dataset.Relation
		cover, progress string
	}{
		{"letter 2000x17", letterShaped(2000, 1), "88de4ff48455edca", "adf86b78105ce32e"},
		{"weather 1000x18", gen.Weather("weather", 1000, 1), "f0e046593a9607b2", "3da73be7ed3d1146"},
	}
	for _, c := range oneShot {
		for _, workers := range []int{1, 2} {
			opt := DefaultOptions()
			opt.Workers = workers
			var progress progressLog
			fds, _, err := DiscoverContext(context.Background(), c.rel, opt, progress.observe)
			if err != nil {
				t.Fatal(err)
			}
			if got := coverDigest(fds); got != c.cover {
				t.Errorf("%s, Workers %d: cover digest %s (%d FDs), want %s", c.name, workers, got, fds.Len(), c.cover)
			}
			if got := progress.digest(); got != c.progress {
				t.Errorf("%s, Workers %d: progress digest %s over %d snapshots, want %s", c.name, workers, got, len(progress), c.progress)
			}
		}
	}

	// A mutation stream in the shape of perfbench's serve-mutate: each
	// batch deletes the 16 oldest rows, rewrites 2 live ones and appends
	// 16 new ones, drawn from rows the bootstrap never saw. The cover
	// digests are of the bootstrap and of every 10th batch; the progress
	// digest is of the first batch's snapshots.
	streams := []struct {
		seed     int64
		covers   []string
		progress string
	}{
		{1, []string{"b1c22e88de70643b", "a0467a1523a11d15", "71d0c8f2e36a3759", "c17d6a55e3c12e2a"}, "7d0aa74a1ad355c8"},
		{7, []string{"042746c30a4c133b", "581469ba360c7de0", "5cde6d1312943ab2", "1d7c4acd36f91710"}, "f60fb383b14056ee"},
	}
	for _, s := range streams {
		covers, progress := mutationStreamDigests(t, s.seed, 2000, 30, 10)
		for i := range s.covers {
			if covers[i] != s.covers[i] {
				t.Errorf("seed %d: cover digest after batch %d = %s, want %s", s.seed, 10*i, covers[i], s.covers[i])
			}
		}
		if progress != s.progress {
			t.Errorf("seed %d: first batch's progress digest = %s, want %s", s.seed, progress, s.progress)
		}
	}
}

// mutationStreamDigests bootstraps an Incremental on the first rows of
// gen.Weather at seed and commits batches serve-mutate-shaped batches.
// It returns the cover digest after the bootstrap and after every
// every-th batch, and the digest of the first batch's Progress snapshots.
func mutationStreamDigests(t *testing.T, seed int64, rows, batches, every int) (covers []string, progress string) {
	t.Helper()
	rel := gen.Weather("weather", rows+rows/2, seed)
	opt := DefaultOptions()
	opt.Workers = 2
	inc, err := NewIncremental(rel.Name, rel.Attrs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(rel.Rows[:rows]); err != nil {
		t.Fatal(err)
	}
	covers = []string{coverDigest(inc.FDs())}
	pool, next := rel.Rows[rows:], 0
	draw := func() []string {
		r := pool[next%len(pool)]
		next++
		return r
	}
	live := make([]int64, rows)
	for i := range live {
		live[i] = int64(i)
	}
	nextID := int64(rows)
	rng := rand.New(rand.NewSource(seed))
	for b := 1; b <= batches; b++ {
		del := append([]int64(nil), live[:16]...)
		live = live[16:]
		var upd []int64
		var updRows [][]string
		for len(upd) < 2 {
			id := live[rng.Intn(len(live))]
			if len(upd) > 0 && upd[0] == id {
				continue
			}
			upd = append(upd, id)
			updRows = append(updRows, draw())
		}
		app := make([][]string, 16)
		for i := range app {
			app[i] = draw()
			live = append(live, nextID)
			nextID++
		}
		batch := MutationBatch{Mutations: []Mutation{DeleteOp(del...), UpdateOp(upd, updRows), AppendOp(app)}}
		var log progressLog
		if _, err := inc.ApplyContext(context.Background(), batch, log.observe); err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
		if b == 1 {
			progress = log.digest()
		}
		if b%every == 0 {
			covers = append(covers, coverDigest(inc.FDs()))
		}
	}
	return covers, progress
}
