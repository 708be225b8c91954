package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

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
