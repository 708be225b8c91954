package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"eulerfd/internal/afd"
	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
)

// readySession submits the patient corpus and waits for the result.
func readySession(t *testing.T, base string) string {
	t.Helper()
	doc := submit(t, base, patientCSV)
	waitState(t, base, doc.Session, stateReady)
	return doc.Session
}

func getAFDs(t *testing.T, base, id, query string) (int, afdsDoc, []byte) {
	t.Helper()
	code, blob := doReq(t, "GET", base+"/v1/sessions/"+id+"/afds"+query, "")
	var doc afdsDoc
	if code == http.StatusOK {
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatalf("decode afds: %v: %s", err, blob)
		}
	}
	return code, doc, blob
}

func TestAFDsThresholdDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	code, doc, blob := getAFDs(t, ts.URL, id, "")
	if code != http.StatusOK {
		t.Fatalf("afds: status %d: %s", code, blob)
	}
	if doc.Mode != "threshold" || doc.Measure != "g3" || doc.Epsilon != 0.05 {
		t.Errorf("default header = %+v", doc)
	}
	if doc.Count != len(doc.FDs) || doc.Count == 0 {
		t.Fatalf("count = %d, |fds| = %d", doc.Count, len(doc.FDs))
	}
	for i, sf := range doc.FDs {
		if sf.Score > 0.05 {
			t.Errorf("result %v exceeds eps", sf)
		}
		if i > 0 && !fdset.Less(doc.FDs[i-1].FD, sf.FD) {
			t.Errorf("threshold output not in canonical order at %d", i)
		}
	}
	if len(doc.Attrs) != 5 {
		t.Errorf("attrs = %v", doc.Attrs)
	}
}

func TestAFDsEpsZeroMatchesFDs(t *testing.T) {
	// Exhaustive EulerFD is exact, so the session's /fds result is the
	// true minimal cover — eps=0 threshold results must agree with it
	// and carry score 0.
	cfg := Config{Euler: core.DefaultOptions()}
	cfg.Euler.ExhaustWindows = true
	_, ts := newTestServer(t, cfg)
	id := readySession(t, ts.URL)
	code, doc, blob := getAFDs(t, ts.URL, id, "?eps=0")
	if code != http.StatusOK {
		t.Fatalf("afds eps=0: status %d: %s", code, blob)
	}
	for _, sf := range doc.FDs {
		if sf.Score != 0 {
			t.Errorf("eps=0 result %v has nonzero score", sf)
		}
	}
	codeFDs, blobFDs := doReq(t, "GET", ts.URL+"/v1/sessions/"+id+"/fds", "")
	if codeFDs != http.StatusOK {
		t.Fatalf("fds: status %d", codeFDs)
	}
	var fdoc struct {
		FDs []fdset.FD `json:"fds"`
	}
	if err := json.Unmarshal(blobFDs, &fdoc); err != nil {
		t.Fatal(err)
	}
	exact := fdset.NewSet(fdoc.FDs...)
	got := fdset.NewSet()
	for _, sf := range doc.FDs {
		got.Add(sf.FD)
	}
	if !got.Equal(exact) {
		t.Errorf("afds eps=0 = %v, exact fds = %v", got.Slice(), exact.Slice())
	}
}

func TestAFDsTopK(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	code, doc, blob := getAFDs(t, ts.URL, id, "?k=3&measure=pdep")
	if code != http.StatusOK {
		t.Fatalf("afds topk: status %d: %s", code, blob)
	}
	if doc.Mode != "topk" || doc.K != 3 || doc.Measure != "pdep" {
		t.Errorf("topk header = %+v", doc)
	}
	if len(doc.FDs) == 0 || len(doc.FDs) > 3 {
		t.Fatalf("|topk| = %d", len(doc.FDs))
	}
	for i := 1; i < len(doc.FDs); i++ {
		if doc.FDs[i].Score < doc.FDs[i-1].Score {
			t.Errorf("ranking not sorted: %v after %v", doc.FDs[i], doc.FDs[i-1])
		}
	}
	// Determinism across repeated queries (shared scorer, warm cache).
	code2, doc2, _ := getAFDs(t, ts.URL, id, "?k=3&measure=pdep")
	if code2 != http.StatusOK || !reflect.DeepEqual(doc.FDs, doc2.FDs) {
		t.Errorf("repeated topk query differed:\n%v\n%v", doc.FDs, doc2.FDs)
	}
}

func TestAFDsValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	for query, want := range map[string]int{
		"?eps=0.1&k=3":     http.StatusBadRequest, // mutually exclusive
		"?measure=bogus":   http.StatusBadRequest,
		"?eps=abc":         http.StatusBadRequest,
		"?eps=1.5":         http.StatusBadRequest, // out of range, from Discover
		"?k=0":             http.StatusBadRequest,
		"?k=-2":            http.StatusBadRequest,
		"?k=x":             http.StatusBadRequest,
		"?measure=pdep":    http.StatusBadRequest, // not anti-monotone in threshold mode
		"?measure=tau":     http.StatusBadRequest,
		"?measure=g1":      http.StatusOK,
		"?measure=tau&k=2": http.StatusOK,
	} {
		code, _, blob := getAFDs(t, ts.URL, id, query)
		if code != want {
			t.Errorf("afds%s: status %d (want %d): %s", query, code, want, blob)
		}
	}
	// Unknown session.
	code, _, _ := getAFDs(t, ts.URL, "nope", "")
	if code != http.StatusNotFound {
		t.Errorf("unknown session: status %d", code)
	}
}

func TestAFDsBeforeResult(t *testing.T) {
	_, ts := newTestServer(t, Config{CycleDelay: 50 * time.Millisecond})
	doc := submit(t, ts.URL, patientCSV)
	// Immediately query: the job is still queued or running.
	code, _, blob := getAFDs(t, ts.URL, doc.Session, "")
	if code != http.StatusConflict {
		t.Errorf("afds before result: status %d: %s", code, blob)
	}
	waitState(t, ts.URL, doc.Session, stateReady)
	if code, _, _ := getAFDs(t, ts.URL, doc.Session, ""); code != http.StatusOK {
		t.Errorf("afds after result: status %d", code)
	}
}

func TestAFDsScorerAdvancedByAppend(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	id := readySession(t, ts.URL)
	if code, _, _ := getAFDs(t, ts.URL, id, "?eps=0"); code != http.StatusOK {
		t.Fatal("first afds query failed")
	}
	// Append rows; once the job commits, /afds must answer over the grown
	// snapshot exactly as a fresh threshold run over it does.
	code, blob := postMutations(t, ts.URL, id, patientBatch)
	if code != http.StatusAccepted {
		t.Fatalf("append: status %d: %s", code, blob)
	}
	waitState(t, ts.URL, id, stateReady)
	srv.mu.Lock()
	sess := srv.sessions[id]
	srv.mu.Unlock()
	sess.mu.Lock()
	snap := sess.inc.Snapshot()
	sess.mu.Unlock()
	opt := afd.DefaultOptions()
	opt.Epsilon = 0
	want, _, err := afd.Threshold(context.Background(), snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	code, doc, body := getAFDs(t, ts.URL, id, "?eps=0")
	if code != http.StatusOK {
		t.Fatalf("post-append afds: status %d: %s", code, body)
	}
	if doc.Count == 0 || !reflect.DeepEqual(doc.FDs, want) {
		t.Errorf("post-append afds = %v, want afd.Threshold on the new snapshot = %v", doc.FDs, want)
	}
}
