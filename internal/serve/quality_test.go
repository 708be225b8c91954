package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eulerfd/internal/afd"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/gen"
	"eulerfd/internal/quality"
)

func getQuality(t *testing.T, base, id, query string) (int, quality.Report, []byte) {
	t.Helper()
	code, blob := doReq(t, "GET", base+"/v1/sessions/"+id+"/quality"+query, "")
	var doc quality.Report
	if code == http.StatusOK {
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("decode quality: %v: %s", err, blob)
		}
	}
	return code, doc, blob
}

func TestQualityReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	code, doc, blob := getQuality(t, ts.URL, id, "")
	if code != http.StatusOK {
		t.Fatalf("quality: status %d: %s", code, blob)
	}
	if doc.K != 5 {
		t.Errorf("default k = %d, want 5", doc.K)
	}
	if len(doc.Attrs) != 5 || doc.Rows == 0 {
		t.Errorf("header = attrs %v rows %d", doc.Attrs, doc.Rows)
	}
	if doc.Version != 1 {
		t.Errorf("version = %d, want 1 after the initial job", doc.Version)
	}
	if len(doc.Ranked) == 0 {
		t.Fatal("empty ranking")
	}
	if len(doc.Violations) != len(doc.Repairs) {
		t.Errorf("%d violation entries vs %d repair entries", len(doc.Violations), len(doc.Repairs))
	}
	// Repeated queries answer identically (shared scorer, warm cache).
	code2, doc2, _ := getQuality(t, ts.URL, id, "")
	if code2 != http.StatusOK || !reflect.DeepEqual(doc, doc2) {
		t.Errorf("repeated quality query differed:\n%+v\n%+v", doc, doc2)
	}
}

func TestQualityKnobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	code, doc, blob := getQuality(t, ts.URL, id, "?k=2&clusters=1&rows=1")
	if code != http.StatusOK {
		t.Fatalf("quality knobs: status %d: %s", code, blob)
	}
	if doc.K != 2 || len(doc.Ranked) > 2 {
		t.Errorf("k = %d, |ranked| = %d", doc.K, len(doc.Ranked))
	}
	for _, v := range doc.Violations {
		if len(v.Examples) > 1 {
			t.Errorf("%v: %d cluster examples, want ≤ 1", v.FD, len(v.Examples))
		}
		for _, ex := range v.Examples {
			if len(ex.Rows) > 1 {
				t.Errorf("%v: %d example rows, want ≤ 1", v.FD, len(ex.Rows))
			}
		}
	}
}

func TestQualityValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	for _, q := range []string{"?k=0", "?k=-3", "?k=x", "?clusters=0", "?rows=-1", "?rows=y"} {
		code, _, blob := getQuality(t, ts.URL, id, q)
		if code != http.StatusBadRequest {
			t.Errorf("quality%s: status %d, want 400: %s", q, code, blob)
		}
	}
	if code, _, _ := getQuality(t, ts.URL, "nope", ""); code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}
}

func TestQualityBeforeResult(t *testing.T) {
	_, ts := newTestServer(t, Config{CycleDelay: 50 * time.Millisecond})
	doc := submit(t, ts.URL, patientCSV)
	code, _, blob := getQuality(t, ts.URL, doc.Session, "")
	if code != http.StatusConflict {
		t.Errorf("quality before result: status %d: %s", code, blob)
	}
	waitState(t, ts.URL, doc.Session, stateReady)
	if code, _, _ := getQuality(t, ts.URL, doc.Session, ""); code != http.StatusOK {
		t.Errorf("quality after result: status %d", code)
	}
}

func TestQualityMinVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	// Version 1 after the first job: min_version=2 must answer 412 with
	// the current version in the body.
	code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+id+"/quality?min_version=2", "")
	if code != http.StatusPreconditionFailed {
		t.Fatalf("stale read: status %d, want 412: %s", code, blob)
	}
	// An append commits version 2; the same read now answers, and the
	// report is stamped with the version it describes.
	code, blob = postMutations(t, ts.URL, id, patientBatch)
	if code != http.StatusAccepted {
		t.Fatalf("append: status %d: %s", code, blob)
	}
	waitState(t, ts.URL, id, stateReady)
	code, doc, blob := getQuality(t, ts.URL, id, "?min_version=2")
	if code != http.StatusOK {
		t.Fatalf("post-append read: status %d: %s", code, blob)
	}
	if doc.Version != 2 {
		t.Errorf("report version = %d, want 2", doc.Version)
	}
}

// TestQualityCancelledReclaimsSlot mirrors the ensemble-query contract:
// a request with a dead context answers 499 and releases its job slot.
func TestQualityCancelledReclaimsSlot(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxJobs: 1})
	id := readySession(t, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/sessions/"+id+"/quality", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled quality: status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}

	// The single job slot is free again: a fresh query answers.
	if code, _, blob := getQuality(t, ts.URL, id, ""); code != http.StatusOK {
		t.Fatalf("quality after cancelled request: status %d: %s", code, blob)
	}
}

// scoringQuery is one /quality or /afds?k= request the version test
// drives, with the body a replay at version v should produce.
type scoringQuery struct {
	path string
	want func(t *testing.T, inc *core.Incremental, v int64) []byte
}

// qualityAt renders the report fdserve should serve at version v.
func qualityAt(k int) func(*testing.T, *core.Incremental, int64) []byte {
	return func(t *testing.T, inc *core.Incremental, v int64) []byte {
		opt := quality.DefaultOptions()
		opt.TopK = k
		rep, err := quality.Analyze(context.Background(), inc.Snapshot(), inc.FDs(), nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep.Version = v
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, (*qualityDoc)(rep))
		return rec.Body.Bytes()
	}
}

// rankAt renders the top-k /afds answer fdserve should serve at version v.
func rankAt(m afd.Measure, k int) func(*testing.T, *core.Incremental, int64) []byte {
	return func(t *testing.T, inc *core.Incremental, v int64) []byte {
		snap := inc.Snapshot()
		scored, err := afd.NewScorer(snap, 0).Rank(context.Background(), m, inc.FDs().Slice(), k)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, afdsDoc{Attrs: snap.Attrs, Version: v, Measure: string(m), Mode: "topk",
			K: k, Count: len(scored), FDs: scored})
		return rec.Body.Bytes()
	}
}

// TestScoringReadsOneVersionUnderMutations drives /quality and /afds?k=
// while mutation batches commit. Each handler reads its scorer, the
// snapshot under it, the cover and the version together, so every
// response is 200, 409 (a job in flight) or 412 (below min_version) —
// never a dropped connection — and every 200 body equals what a
// core.Incremental replay of the same log gives at the version the body
// reports.
func TestScoringReadsOneVersionUnderMutations(t *testing.T) {
	queries := []scoringQuery{
		{"/quality", qualityAt(quality.DefaultOptions().TopK)},
		{"/quality?k=2&min_version=3", qualityAt(2)},
		{"/afds?k=3", rankAt(afd.G3, 3)},
		{"/afds?k=2&measure=redundancy", rankAt(afd.Redundancy, 2)},
	}
	// A 120-row weather log, then 12 batches that each delete the oldest
	// row and append two more rows of the same log.
	full := gen.Weather("weather", 144, 1)
	var csv strings.Builder
	if err := dataset.WriteCSV(&csv, dataset.MustNew("weather", full.Attrs, full.Rows[:120])); err != nil {
		t.Fatal(err)
	}
	var batches []core.MutationBatch
	for i := 0; i < 12; i++ {
		batches = append(batches, core.MutationBatch{Mutations: []core.Mutation{
			core.DeleteOp(int64(i)),
			core.AppendOp(full.Rows[120+2*i : 122+2*i]),
		}})
	}

	_, ts := newTestServer(t, Config{})
	id := submit(t, ts.URL, csv.String()).Session
	waitVersion(t, ts.URL, id, 1)
	got := driveScoringReads(t, ts.URL+"/v1/sessions/"+id, queries, func() {
		for i, b := range batches {
			if code, blob := postMutations(t, ts.URL, id, b); code != http.StatusAccepted {
				t.Fatalf("batch %d: status %d: %s", i, code, blob)
			}
			waitVersion(t, ts.URL, id, int64(i+2))
		}
	})

	rel, err := dataset.ReadCSV("weather", strings.NewReader(csv.String()), dataset.DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncremental("weather", rel.Attrs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(rel.Rows); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for v := int64(1); ; v++ {
		for qi, q := range queries {
			bodies := got[qi][v]
			if len(bodies) == 0 {
				continue
			}
			want := q.want(t, inc, v)
			for _, body := range bodies {
				if !bytes.Equal(body, want) {
					t.Fatalf("%s at version %d departs from the replay:\n%s\nwant:\n%s", q.path, v, body, want)
				}
				seen++
			}
		}
		if int(v) > len(batches) {
			break
		}
		if _, err := inc.Apply(batches[v-1]); err != nil {
			t.Fatal(err)
		}
	}
	if seen == 0 {
		t.Fatal("no request answered 200")
	}
}

// driveScoringReads runs mutate on the test goroutine while one reader
// per query polls it against base until mutate returns. It fails the
// test on a transport error or a status other than 200, 409 or 412, and
// returns every 200 body per query, keyed by the version it reports.
func driveScoringReads(t *testing.T, base string, queries []scoringQuery, mutate func()) []map[int64][][]byte {
	got := make([]map[int64][][]byte, len(queries))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for qi, q := range queries {
		got[qi] = make(map[int64][][]byte)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + q.path)
				if err != nil {
					t.Errorf("%s: %v", q.path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Errorf("%s: read body: %v", q.path, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusConflict, http.StatusPreconditionFailed:
					continue
				default:
					t.Errorf("%s: status %d: %s", q.path, resp.StatusCode, body)
					return
				}
				var doc struct{ Version int64 }
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Errorf("%s: decode: %v: %s", q.path, err, body)
					return
				}
				got[qi][doc.Version] = append(got[qi][doc.Version], body)
			}
		}()
	}
	func() {
		defer func() {
			close(stop)
			wg.Wait()
		}()
		mutate()
	}()
	return got
}
