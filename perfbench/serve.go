package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/fdset"
	"eulerfd/internal/gen"
	"eulerfd/internal/metrics"
	"eulerfd/internal/serve"
)

// The serve-mutate traffic: a sliding window over a sensor log. Every
// batch deletes the oldest rows, rewrites a few live ones and appends as
// many new rows as it deleted, so the relation keeps its size while the
// encoder accumulates tombstones and compacts periodically.
const (
	serveRows    = 8000
	serveSetups  = 3
	batchDeletes = 16
	batchUpdates = 2
	batchAppends = 16
)

// Client-side views of the fdserve wire documents.
type submitDoc struct {
	Session string `json:"session"`
	Job     string `json:"job"`
	Version int64  `json:"version"`
}

type doneDoc struct {
	Job     string `json:"job"`
	Code    int    `json:"code"`
	Error   string `json:"error"`
	Version int64  `json:"version"`
}

type fdsDoc struct {
	Version int64           `json:"version"`
	FDs     json.RawMessage `json:"fds"`
}

type statsDoc struct {
	Stats core.Stats `json:"stats"`
}

// harness is one fdserve instance on a loopback listener with one
// bootstrapped session.
type harness struct {
	srv     *serve.Server
	ts      *httptest.Server
	client  *http.Client
	base    string // session URL
	version int64  // version the bootstrap committed
}

func startServer(opt core.Options, csv []byte) (*harness, error) {
	srv := serve.New(serve.Config{Euler: opt})
	ts := httptest.NewServer(srv)
	h := &harness{srv: srv, ts: ts, client: ts.Client()}
	var sub submitDoc
	if err := h.do(http.MethodPost, ts.URL+"/v1/sessions?name=weather", "text/csv", csv, http.StatusAccepted, &sub); err != nil {
		h.close()
		return nil, fmt.Errorf("submit: %w", err)
	}
	h.base = ts.URL + "/v1/sessions/" + sub.Session
	done, err := h.waitDone(sub.Job)
	if err == nil && done.Code != http.StatusOK {
		err = fmt.Errorf("bootstrap job ended with code %d: %s", done.Code, done.Error)
	}
	if err != nil {
		h.close()
		return nil, err
	}
	h.version = done.Version
	return h, nil
}

// close drains in-flight jobs and stops the listener.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = h.srv.Drain(ctx) // a drain past the deadline still lets Close below stop the listener
	h.ts.Close()
}

// do sends one request and decodes the JSON answer into out. A status
// other than want is an error.
func (h *harness) do(method, url, ctype string, body []byte, want int, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(blob))}
	}
	return json.Unmarshal(blob, out)
}

type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// waitDone follows the session's event stream until the done event of
// job. The stream replays the session history first, so a job that
// finished before the subscription is still seen.
func (h *harness) waitDone(job string) (doneDoc, error) {
	resp, err := h.client.Get(h.base + "/events")
	if err != nil {
		return doneDoc{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return doneDoc{}, &statusError{code: resp.StatusCode}
	}
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case event == "done" && strings.HasPrefix(line, "data: "):
			var d doneDoc
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &d); err != nil {
				return d, err
			}
			if d.Job == job {
				return d, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return doneDoc{}, err
	}
	return doneDoc{}, fmt.Errorf("event stream ended without the done event of job %s", job)
}

// window generates the mutation stream: it tracks live row ids in age
// order and draws new row contents from a pool of generated rows.
type window struct {
	live   []int64
	nextID int64
	pool   [][]string
	next   int
	rng    *rand.Rand
}

func (w *window) row() []string {
	r := w.pool[w.next%len(w.pool)]
	w.next++
	return r
}

func (w *window) batch() core.MutationBatch {
	del := append([]int64(nil), w.live[:batchDeletes]...)
	w.live = w.live[batchDeletes:]
	upd := make([]int64, 0, batchUpdates)
	updRows := make([][]string, 0, batchUpdates)
	for len(upd) < batchUpdates {
		id := w.live[w.rng.Intn(len(w.live))]
		if len(upd) > 0 && upd[0] == id {
			continue
		}
		upd = append(upd, id)
		updRows = append(updRows, w.row())
	}
	app := make([][]string, batchAppends)
	for i := range app {
		app[i] = w.row()
		w.live = append(w.live, w.nextID)
		w.nextID++
	}
	return core.MutationBatch{Mutations: []core.Mutation{
		core.DeleteOp(del...), core.UpdateOp(upd, updRows), core.AppendOp(app),
	}}
}

// readerLog is what the concurrent /fds reader measured. The reader
// goroutine owns it until it exits.
type readerLog struct {
	reads     []time.Duration
	attempted int
	failed    int
	failures  []string // the first few, for the report
	status412 int
	httpErrs  int
}

func runServeMutate(cfg config) (*result, error) {
	rows := serveRows
	if cfg.rows > 0 {
		rows = cfg.rows
	}
	poolRows := max(rows/2, 64)
	res := newResult(cfg)
	opt := core.DefaultOptions()

	// Set-up: generate the log, serialize the bootstrap window, start a
	// server and wait for the bootstrap job's done event. It runs several
	// times; the last server is the one measured.
	var h *harness
	var rel *dataset.Relation
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		rel = gen.Weather("weather", rows+poolRows, cfg.seed)
		var buf bytes.Buffer
		boot := &dataset.Relation{Name: rel.Name, Attrs: rel.Attrs, Rows: rel.Rows[:rows]}
		if err := dataset.WriteCSV(&buf, boot); err != nil {
			return nil, fmt.Errorf("serialize input: %w", err)
		}
		next, err := startServer(opt, buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setup = append(res.setup, time.Since(t0))
		if h != nil {
			h.close()
		}
		h = next
	}
	defer h.close()
	res.stamp.Rows, res.stamp.Cols = rows, len(rel.Attrs)

	w := &window{nextID: int64(rows), pool: rel.Rows[rows:], rng: rand.New(rand.NewSource(cfg.seed))}
	for id := int64(0); id < int64(rows); id++ {
		w.live = append(w.live, id)
	}

	var committed atomic.Int64
	committed.Store(h.version)
	stop := make(chan struct{})
	notify := make(chan struct{}, 1)
	var rlog readerLog
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.readLoop(stop, notify, &committed, &rlog)
	}()

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	var batches []core.MutationBatch
	version := h.version
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < cfg.seconds || (cfg.trace && i < 2); i++ {
		var t *tracer
		if cfg.trace && i%2 == 1 {
			t = tr
		}
		b := w.batch()
		res.attempted++
		blob, err := json.Marshal(b)
		if err != nil {
			res.fail("batch %d: encode: %v", i, err)
			break
		}
		root := t.begin("op", i, 0)
		t0 := time.Now()
		sp := t.begin("serve.ack", i, root)
		var sub submitDoc
		err = h.do(http.MethodPost, h.base+"/mutations", "application/json", blob, http.StatusAccepted, &sub)
		ack := time.Since(t0)
		t.end(sp)
		var done doneDoc
		if err == nil {
			sp = t.begin("serve.wait_done", i, root)
			done, err = h.waitDone(sub.Job)
			t.end(sp)
		}
		d := time.Since(t0)
		t.end(root)
		switch {
		case err != nil:
			res.fail("batch %d: %v", i, err)
		case done.Code != http.StatusOK:
			res.fail("batch %d: job ended with code %d: %s", i, done.Code, done.Error)
		case sub.Version != version || done.Version != version+1:
			res.fail("batch %d: accepted on version %d and committed %d, want %d and %d", i, sub.Version, done.Version, version, version+1)
		}
		if res.failed > 0 {
			// The stream has diverged from what the replay would apply.
			break
		}
		version = done.Version
		committed.Store(version)
		select {
		case notify <- struct{}{}:
		default: // a read is already pending; it will see this version
		}
		batches = append(batches, b)
		if t == nil {
			res.ops = append(res.ops, d)
			continue
		}
		res.tracedOps = append(res.tracedOps, d)
		var sd statsDoc
		if err := h.do(http.MethodGet, h.base+"/stats?min_version="+strconv.FormatInt(version, 10), "", nil, http.StatusOK, &sd); err != nil {
			res.fail("batch %d: stats: %v", i, err)
			break
		}
		st := sd.Stats
		res.sample("serve.ack_ms", ms(ack))
		res.sample("serve.job_ms", ms(st.Total))
		res.sample("serve.job_overhead_ms", ms(d-st.Total))
		res.sample("core.delta_scan_ms", ms(st.Sampling))
		res.sample("core.delta_pairs", float64(st.PairsCompared))
		res.sample("core.patch_ms", ms(st.Inversion))
		res.sample("core.retired", float64(st.Retired))
		res.sample("core.patched_rhs", float64(st.PatchedRHS))
		res.sample("cover.ncover_size", float64(st.NcoverSize))
		res.sample("cover.pcover_size", float64(st.PcoverSize))
		// The job's own Stats split the wait for done: the delta scan and
		// the rest of the job run in core, cover patching in cover; what
		// remains of the request is the service's.
		res.move("serve", "core", st.Total-st.Inversion)
		res.move("serve", "cover", st.Inversion)
	}
	res.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	runtime.ReadMemStats(&after)
	res.allocBytes = after.TotalAlloc - before.TotalAlloc
	res.numGC = after.NumGC - before.NumGC
	res.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	res.heapLive = liveHeap()

	res.reads = rlog.reads
	res.attempted += rlog.attempted
	res.failed += rlog.failed
	res.problems = append(res.problems, rlog.failures...)
	if cfg.trace {
		res.sample("serve.read_412", float64(rlog.status412))
		res.sample("serve.http_errors", float64(rlog.httpErrs))
	}
	res.spans = tr.snapshot()
	if res.failed > 0 {
		return res, nil
	}

	// Correctness: the served cover must equal a direct replay of the
	// committed batch stream through core.Incremental.
	var final fdsDoc
	if err := h.do(http.MethodGet, h.base+"/fds", "", nil, http.StatusOK, &final); err != nil {
		res.fail("final /fds: %v", err)
		return res, nil
	}
	served := fdset.NewSet()
	if err := served.UnmarshalJSON(final.FDs); err != nil {
		res.fail("final /fds: %v", err)
		return res, nil
	}
	if cfg.corrupt != nil {
		cfg.corrupt(len(batches), served)
	}
	inc, err := core.NewIncremental("weather", rel.Attrs, opt)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if _, err := inc.Append(rel.Rows[:rows]); err != nil {
		return nil, fmt.Errorf("replay bootstrap: %w", err)
	}
	for i, b := range batches {
		if _, err := inc.Apply(b); err != nil {
			return nil, fmt.Errorf("replay batch %d: %w", i, err)
		}
	}
	want := inc.FDs()
	res.f1 = metrics.Evaluate(served, want).F1
	res.stamp.CoverSize = served.Len()
	if !served.Equal(want) || final.Version != inc.Version() {
		res.fail("served cover (%d FDs, version %d) differs from the replay (%d FDs, version %d)",
			served.Len(), final.Version, want.Len(), inc.Version())
	}
	return res, nil
}

// readLoop is a follower: after every commit the writer announces, it
// reads the session's cover at the last committed version, until stop
// closes. Versions that commit while a read is in flight are coalesced
// into the next read. Every answer must be 200 at a version at least the
// one asked for.
func (h *harness) readLoop(stop <-chan struct{}, notify <-chan struct{}, committed *atomic.Int64, rl *readerLog) {
	for {
		select {
		case <-stop:
			return
		case <-notify:
		}
		v := committed.Load()
		rl.attempted++
		t0 := time.Now()
		var doc fdsDoc
		err := h.do(http.MethodGet, h.base+"/fds?min_version="+strconv.FormatInt(v, 10), "", nil, http.StatusOK, &doc)
		d := time.Since(t0)
		var se *statusError
		switch {
		case err == nil && doc.Version >= v:
			rl.reads = append(rl.reads, d)
			continue
		case err == nil:
			err = fmt.Errorf("answered version %d", doc.Version)
		case errors.As(err, &se) && se.code == http.StatusPreconditionFailed:
			rl.status412++
		default:
			rl.httpErrs++
		}
		rl.failed++
		if len(rl.failures) < 8 {
			rl.failures = append(rl.failures, fmt.Sprintf("read at min_version %d: %v", v, err))
		}
	}
}
