package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// getEnsemble queries ?ensemble=... on a ready session and decodes the
// response.
func getEnsemble(t *testing.T, base, id, query string) ensembleDoc {
	t.Helper()
	code, blob := doReq(t, "GET", base+"/v1/sessions/"+id+"/fds?"+query, "")
	if code != http.StatusOK {
		t.Fatalf("ensemble query %q: status %d: %s", query, code, blob)
	}
	var doc ensembleDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestEnsembleQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, sub.Session, stateReady)

	doc := getEnsemble(t, ts.URL, sub.Session, "ensemble=3&seed=7")
	if doc.Members != 3 || doc.Seed != 7 {
		t.Fatalf("members=%d seed=%d, want 3/7", doc.Members, doc.Seed)
	}
	if doc.Count != len(doc.FDs) || doc.Count == 0 {
		t.Fatalf("count=%d with %d candidates", doc.Count, len(doc.FDs))
	}
	if len(doc.Attrs) != 5 {
		t.Fatalf("attrs = %v, want the 5 patient columns", doc.Attrs)
	}
	for i, f := range doc.FDs {
		if f.Votes < 1 || f.Votes > 3 {
			t.Errorf("candidate %d: votes = %d out of range", i, f.Votes)
		}
		if want := float64(f.Votes) / 3; f.Confidence != want {
			t.Errorf("candidate %d: confidence = %v, want %v", i, f.Confidence, want)
		}
		if f.Suspect != (f.G3 > 0) {
			t.Errorf("candidate %d: suspect=%v inconsistent with g3=%v", i, f.Suspect, f.G3)
		}
		if i > 0 && doc.FDs[i-1].Votes < f.Votes {
			t.Errorf("candidates not strongest-first at %d: %d then %d votes", i, doc.FDs[i-1].Votes, f.Votes)
		}
	}
	if doc.Majority > doc.Count {
		t.Fatalf("majority %d exceeds candidate count %d", doc.Majority, doc.Count)
	}

	// Same query, same bytes: the vote is deterministic.
	again := getEnsemble(t, ts.URL, sub.Session, "ensemble=3&seed=7")
	a, _ := json.Marshal(doc)
	b, _ := json.Marshal(again)
	if string(a) != string(b) {
		t.Fatalf("repeated ensemble query differs:\n%s\nvs\n%s", a, b)
	}
}

// TestEnsembleQuerySingleMemberMatchesFDs: an ensemble of one with the
// base seed runs the very schedule the session's own job ran, so its
// unanimous candidates are exactly the session's FD set.
func TestEnsembleQuerySingleMemberMatchesFDs(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sub := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, sub.Session, stateReady)

	doc := getEnsemble(t, ts.URL, sub.Session, "ensemble=1")
	srv.mu.Lock()
	sess := srv.sessions[sub.Session]
	srv.mu.Unlock()
	fds, _, _, _, _ := sess.snapshotResult()
	if len(doc.FDs) != fds.Len() {
		t.Fatalf("N=1 ensemble has %d candidates, session result %d FDs", len(doc.FDs), fds.Len())
	}
	for _, f := range doc.FDs {
		if f.Votes != 1 || f.Confidence != 1 {
			t.Errorf("N=1 candidate %v->%d: votes=%d conf=%v, want 1/1", f.LHS, f.RHS, f.Votes, f.Confidence)
		}
	}
}

func TestEnsembleQueryPublishesProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, sub.Session, stateReady)
	before := waitEvents(t, ts.URL, sub.Session, 1).Events

	getEnsemble(t, ts.URL, sub.Session, "ensemble=4")
	after := waitEvents(t, ts.URL, sub.Session, before+4)
	if after.Events != before+4 {
		t.Fatalf("ensemble=4 published %d events, want 4", after.Events-before)
	}
}

func TestEnsembleQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, sub.Session, stateReady)

	for _, q := range []string{"ensemble=0", "ensemble=-2", "ensemble=abc", "ensemble=65", "ensemble=2&seed=-1", "ensemble=2&seed=x"} {
		code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+sub.Session+"/fds?"+q, "")
		if code != http.StatusBadRequest {
			t.Errorf("query %q: status %d, want 400: %s", q, code, blob)
		}
	}
}

// TestEnsembleQueryCancelledReclaimsSlot: a cancelled ensemble query
// answers 499 and releases its job slot, so a subsequent job on a
// MaxJobs=1 server still runs. The cancelled run leaks no partial
// votes: the follow-up query recomputes from scratch and matches an
// untainted server's answer.
func TestEnsembleQueryCancelledReclaimsSlot(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxJobs: 1})
	sub := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, sub.Session, stateReady)

	// Drive the handler directly with a dead request context: whichever
	// the select observes first — the free slot or the cancellation — the
	// run must answer 499 and leave the slot free.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("GET", "/v1/sessions/"+sub.Session+"/fds?ensemble=8", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled ensemble: status %d, want %d: %s", rec.Code, StatusClientClosedRequest, rec.Body)
	}

	// The single job slot is free again: an append completes...
	code, blob := postMutations(t, ts.URL, sub.Session, patientBatch)
	if code != http.StatusAccepted {
		t.Fatalf("append after cancelled ensemble: status %d: %s", code, blob)
	}
	waitState(t, ts.URL, sub.Session, stateReady)

	// ...and a fresh ensemble query answers, identically to one on a
	// server that never saw the cancelled run.
	doc := getEnsemble(t, ts.URL, sub.Session, "ensemble=3&seed=9")

	_, ts2 := newTestServer(t, Config{MaxJobs: 1})
	sub2 := submit(t, ts2.URL, patientCSV)
	waitState(t, ts2.URL, sub2.Session, stateReady)
	code, blob = postMutations(t, ts2.URL, sub2.Session, patientBatch)
	if code != http.StatusAccepted {
		t.Fatalf("append on control server: status %d: %s", code, blob)
	}
	waitState(t, ts2.URL, sub2.Session, stateReady)
	want := getEnsemble(t, ts2.URL, sub2.Session, "ensemble=3&seed=9")

	a, _ := json.Marshal(doc)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatalf("ensemble after cancelled run differs from control:\n%s\nvs\n%s", a, b)
	}
}

func TestEnsembleQueryBeforeResult(t *testing.T) {
	_, ts := newTestServer(t, Config{CycleDelay: 50 * time.Millisecond})
	sub := submit(t, ts.URL, patientCSV)
	code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+sub.Session+"/fds?ensemble=2", "")
	if code != http.StatusConflict {
		t.Fatalf("ensemble before result: status %d, want 409: %s", code, blob)
	}
	waitState(t, ts.URL, sub.Session, stateReady)
}
