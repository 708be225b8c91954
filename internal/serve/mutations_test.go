package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
)

// postMutations sends batch as JSON to the mutation-log endpoint.
func postMutations(t *testing.T, base, id string, batch core.MutationBatch) (int, []byte) {
	t.Helper()
	blob, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	return doReq(t, "POST", base+"/v1/sessions/"+id+"/mutations", string(blob))
}

// waitVersion polls the session until its committed version reaches v
// with no job in flight.
func waitVersion(t *testing.T, base, id string, v int64) sessionDoc {
	t.Helper()
	var last sessionDoc
	for i := 0; i < 2000; i++ {
		code, blob := doReq(t, "GET", base+"/v1/sessions/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("get session: status %d: %s", code, blob)
		}
		if err := json.Unmarshal(blob, &last); err != nil {
			t.Fatal(err)
		}
		if last.Version >= v && last.State == stateReady {
			return last
		}
		if last.State == stateCancelled || last.State == stateFailed {
			t.Fatalf("session %s terminal in %q waiting for version %d (job %+v)", id, last.State, v, last.Job)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never reached version %d (at %d, state %q)", id, v, last.Version, last.State)
	return last
}

func TestMutationsCommitAndVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	if doc.Version != 0 {
		t.Fatalf("submit ack version = %d, want 0", doc.Version)
	}
	sess := waitVersion(t, ts.URL, doc.Session, 1)
	if sess.Version != 1 {
		t.Fatalf("version after bootstrap = %d, want 1", sess.Version)
	}

	batch := core.MutationBatch{Mutations: []core.Mutation{
		core.DeleteOp(1),
		core.UpdateOp([]int64{2}, [][]string{{"Nancy", "29", "High", "Female", "drugY"}}),
		core.AppendOp([][]string{
			{"Zoe", "33", "High", "Female", "drugA"},
			{"Yann", "33", "High", "Male", "drugB"},
		}),
	}}
	code, blob := postMutations(t, ts.URL, doc.Session, batch)
	if code != http.StatusAccepted {
		t.Fatalf("mutations: status %d: %s", code, blob)
	}
	var ack submitDoc
	if err := json.Unmarshal(blob, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.Version != 1 {
		t.Fatalf("mutation ack version = %d, want 1 (accepted on top of)", ack.Version)
	}
	sess = waitVersion(t, ts.URL, doc.Session, 2)
	if sess.Rows != 10 { // 9 − 1 deleted + 2 appended − 0
		t.Fatalf("rows after batch = %d, want 10", sess.Rows)
	}

	// The served result matches a direct Incremental run of the same
	// mutation log.
	rel, err := dataset.ReadCSV("patient", strings.NewReader(patientCSV), dataset.DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncremental("patient", rel.Attrs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(rel.Rows); err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Apply(batch); err != nil {
		t.Fatal(err)
	}
	wantBlob, err := inc.FDs().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	code, blob = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/fds?min_version=2", "")
	if code != http.StatusOK {
		t.Fatalf("fds: status %d: %s", code, blob)
	}
	var fds fdsDoc
	if err := json.Unmarshal(blob, &fds); err != nil {
		t.Fatal(err)
	}
	if fds.Version != 2 {
		t.Fatalf("fds version = %d, want 2", fds.Version)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, fds.FDs); err != nil {
		t.Fatal(err)
	}
	if compact.String() != string(wantBlob) {
		t.Fatalf("served FDs differ from direct run:\n%s\nvs\n%s", compact.String(), wantBlob)
	}

	// Stats expose the mutation counters and the id frontier.
	code, blob = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	var st statsDoc
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Deletes != 1 || st.Updates != 1 || st.NextID != 11 {
		t.Fatalf("stats doc wrong: %+v", st)
	}
	if !bytes.Contains(blob, []byte(`"clamped":`)) {
		t.Fatalf("stats doc lacks the clamped-decrement counter: %s", blob)
	}
}

func TestMutationsStaleVersionRead(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	waitVersion(t, ts.URL, doc.Session, 1)

	for _, path := range []string{"/fds", "/afds", "/stats"} {
		code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+path+"?min_version=5", "")
		if code != http.StatusPreconditionFailed {
			t.Fatalf("%s stale read: status %d, want 412: %s", path, code, blob)
		}
		var e errorDoc
		if err := json.Unmarshal(blob, &e); err != nil {
			t.Fatal(err)
		}
		if e.Version != 1 {
			t.Fatalf("%s 412 body reports version %d, want 1", path, e.Version)
		}
	}
	if code, _ := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/fds?min_version=1", ""); code != http.StatusOK {
		t.Fatalf("satisfied min_version: status %d, want 200", code)
	}
	if code, _ := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/fds?min_version=x", ""); code != http.StatusBadRequest {
		t.Fatalf("malformed min_version: status %d, want 400", code)
	}
}

// TestMutationsCancelRollsBackToReady cancels a delta batch mid-run: the
// session must return to ready at its previous committed version with
// its result intact, and accept a retry that commits.
func TestMutationsCancelRollsBackToReady(t *testing.T) {
	_, ts := newTestServer(t, Config{CycleDelay: 400 * time.Millisecond})
	doc := submit(t, ts.URL, patientCSV)
	waitVersion(t, ts.URL, doc.Session, 1)
	code, before := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/fds", "")
	if code != http.StatusOK {
		t.Fatalf("fds before: %d", code)
	}

	events := waitEvents(t, ts.URL, doc.Session, 1).Events
	batch := core.MutationBatch{Mutations: []core.Mutation{core.DeleteOp(0)}}
	if code, blob := postMutations(t, ts.URL, doc.Session, batch); code != http.StatusAccepted {
		t.Fatalf("mutations: status %d: %s", code, blob)
	}
	// The delta's "sampled" snapshot lands, then the job sleeps
	// CycleDelay before the pre-commit context check: cancel there.
	waitEvents(t, ts.URL, doc.Session, events+1)
	if code, blob := doReq(t, "POST", ts.URL+"/v1/sessions/"+doc.Session+"/cancel", ""); code != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", code, blob)
	}

	var sess sessionDoc
	for i := 0; i < 2000; i++ {
		code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session, "")
		if code != http.StatusOK {
			t.Fatalf("get session: %d", code)
		}
		if err := json.Unmarshal(blob, &sess); err != nil {
			t.Fatal(err)
		}
		if sess.State != stateQueued && sess.State != stateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sess.State != stateReady {
		t.Fatalf("state after cancelled delta = %q, want %q (rollback)", sess.State, stateReady)
	}
	if sess.Version != 1 {
		t.Fatalf("version after cancelled delta = %d, want 1", sess.Version)
	}
	if sess.Job == nil || sess.Job.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled delta job should report 499: %+v", sess.Job)
	}
	// The committed result still serves, unchanged.
	code, after := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/fds", "")
	if code != http.StatusOK {
		t.Fatalf("fds after rollback: %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("rolled-back session serves a different result")
	}
	// And the session is not poisoned: the retry commits.
	if code, blob := postMutations(t, ts.URL, doc.Session, batch); code != http.StatusAccepted {
		t.Fatalf("retry: status %d: %s", code, blob)
	}
	if sess = waitVersion(t, ts.URL, doc.Session, 2); sess.Rows != 8 {
		t.Fatalf("rows after retry = %d, want 8", sess.Rows)
	}
}

// TestMutationsBadBatch: shape errors are synchronous 400s; id
// resolution errors fail the job but roll the session back to ready.
func TestMutationsBadBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	waitVersion(t, ts.URL, doc.Session, 1)

	// Unknown op: rejected before a job starts.
	code, blob := doReq(t, "POST", ts.URL+"/v1/sessions/"+doc.Session+"/mutations",
		`{"mutations":[{"op":"upsert"}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d: %s", code, blob)
	}
	// Malformed JSON.
	code, _ = doReq(t, "POST", ts.URL+"/v1/sessions/"+doc.Session+"/mutations", `{"mutations":`)
	if code != http.StatusBadRequest {
		t.Fatalf("malformed json: status %d", code)
	}
	// Wrong row width.
	code, _ = doReq(t, "POST", ts.URL+"/v1/sessions/"+doc.Session+"/mutations",
		`{"mutations":[{"op":"append","rows":[["too","short"]]}]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("short row: status %d", code)
	}

	// Unknown id: shape-valid, so it becomes a job — which fails and
	// rolls back.
	code, blob = postMutations(t, ts.URL, doc.Session, core.MutationBatch{
		Mutations: []core.Mutation{core.DeleteOp(404)},
	})
	if code != http.StatusAccepted {
		t.Fatalf("unknown id accept: status %d: %s", code, blob)
	}
	var sess sessionDoc
	for i := 0; i < 2000; i++ {
		code, blob = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session, "")
		if code != http.StatusOK {
			t.Fatalf("get session: %d", code)
		}
		if err := json.Unmarshal(blob, &sess); err != nil {
			t.Fatal(err)
		}
		if sess.State == stateReady && sess.Job != nil && sess.Job.Code != 0 &&
			sess.Job.Code != http.StatusOK {
			break
		}
		if sess.State == stateCancelled || sess.State == stateFailed {
			t.Fatalf("bad-id batch killed the session: %+v", sess)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sess.State != stateReady || sess.Version != 1 {
		t.Fatalf("after bad-id batch: state %q version %d, want ready at 1", sess.State, sess.Version)
	}
	if sess.Job.Code != http.StatusBadRequest || !strings.Contains(sess.Job.Error, "mutation") {
		t.Fatalf("bad-id job outcome: %+v", sess.Job)
	}
	// The session still works.
	if code, _ := postMutations(t, ts.URL, doc.Session, core.MutationBatch{
		Mutations: []core.Mutation{core.DeleteOp(0)},
	}); code != http.StatusAccepted {
		t.Fatalf("follow-up batch: status %d", code)
	}
	waitVersion(t, ts.URL, doc.Session, 2)
}

// TestAppendRouteRemoved: rows are appended through /mutations only;
// the retired /append alias is no longer routed.
func TestAppendRouteRemoved(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	waitVersion(t, ts.URL, doc.Session, 1)
	code, blob := doReq(t, "POST", ts.URL+"/v1/sessions/"+doc.Session+"/append", "Zoe,33,High,Female,drugA\n")
	if code != http.StatusNotFound && code != http.StatusMethodNotAllowed {
		t.Fatalf("append alias: status %d, want 404 or 405: %s", code, blob)
	}
}

// TestEventsReplayDoneOnceReady pins what a client waiting on a batch
// relies on: once the session reports ready, /events replays the
// finished job's done event and ends. The done event must join the
// history in the same critical section that ends the job; published in
// a second one, a subscriber arriving between the two would see ready
// without done.
func TestEventsReplayDoneOnceReady(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	base := ts.URL + "/v1/sessions/" + doc.Session
	job := doc.Job
	for i := 0; i < 20; i++ {
		deadline := time.Now().Add(10 * time.Second)
		for {
			code, blob := doReq(t, "GET", base, "")
			if code != http.StatusOK {
				t.Fatalf("get session: status %d: %s", code, blob)
			}
			var sd sessionDoc
			if err := json.Unmarshal(blob, &sd); err != nil {
				t.Fatal(err)
			}
			if sd.State == stateReady && sd.Job != nil && sd.Job.ID == job {
				break
			}
			if sd.State == stateCancelled || sd.State == stateFailed {
				t.Fatalf("batch %d: session terminal in %q", i, sd.State)
			}
			if time.Now().After(deadline) {
				t.Fatalf("batch %d: job %s never finished (state %q)", i, job, sd.State)
			}
		}
		code, stream := doReq(t, "GET", base+"/events", "")
		if code != http.StatusOK {
			t.Fatalf("events: status %d", code)
		}
		if want := "event: done\ndata: {\"job\":\"" + job + "\","; !strings.Contains(string(stream), want) {
			t.Fatalf("batch %d: session ready but /events lacks the done event of %s:\n%s", i, job, stream)
		}

		row := []string{"P" + strconv.Itoa(i), "33", "High", "Female", "drugA"}
		code, blob := postMutations(t, ts.URL, doc.Session, core.MutationBatch{Mutations: []core.Mutation{core.AppendOp([][]string{row})}})
		if code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d: %s", i, code, blob)
		}
		var ack submitDoc
		if err := json.Unmarshal(blob, &ack); err != nil {
			t.Fatal(err)
		}
		job = ack.Job
	}
}

// TestJobStatus pins the done-event code of a failed job: a broken
// engine invariant is the server's fault, not the request's.
func TestJobStatus(t *testing.T) {
	for _, c := range []struct {
		err  error
		want int
	}{
		{context.Canceled, StatusClientClosedRequest},
		{fmt.Errorf("apply: %w", context.DeadlineExceeded), http.StatusGatewayTimeout},
		{fmt.Errorf("%w: agree set {0}", core.ErrWitnessOvershoot), http.StatusInternalServerError},
		{&core.MutationError{Op: core.OpDelete, Reason: "row id 9 is unknown or deleted"}, http.StatusBadRequest},
	} {
		if got := jobStatus(c.err); got != c.want {
			t.Errorf("jobStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestEventsReplayMatchesLive has a live subscriber follow each of the
// bootstrap and three mutation batches, then a late subscriber replay
// the whole history. Each live stream starts with the replay of what
// came before it, so the streams nest, and the late replay must equal,
// byte for byte, the frames the live subscribers received in all.
func TestEventsReplayMatchesLive(t *testing.T) {
	_, ts := newTestServer(t, Config{CycleDelay: 50 * time.Millisecond})
	doc := submit(t, ts.URL, patientCSV)
	base := ts.URL + "/v1/sessions/" + doc.Session
	var received []byte
	follow := func(job string) {
		t.Helper()
		code, stream := doReq(t, "GET", base+"/events", "")
		if code != http.StatusOK {
			t.Fatalf("events: status %d", code)
		}
		if !bytes.HasPrefix(stream, received) {
			t.Fatalf("job %s: live stream does not start with the earlier frames:\n%s", job, stream)
		}
		if want := "event: done\ndata: {\"job\":\"" + job + "\","; !bytes.Contains(stream[len(received):], []byte(want)) {
			t.Fatalf("job %s: live stream lacks its done event:\n%s", job, stream)
		}
		received = stream
	}
	follow(doc.Job)
	for i := 0; i < 3; i++ {
		row := []string{"P" + strconv.Itoa(i), "33", "High", "Female", "drugA"}
		code, blob := postMutations(t, ts.URL, doc.Session, core.MutationBatch{Mutations: []core.Mutation{
			core.DeleteOp(int64(i)), core.AppendOp([][]string{row}),
		}})
		if code != http.StatusAccepted {
			t.Fatalf("batch %d: status %d: %s", i, code, blob)
		}
		var ack submitDoc
		if err := json.Unmarshal(blob, &ack); err != nil {
			t.Fatal(err)
		}
		follow(ack.Job)
	}
	code, replay := doReq(t, "GET", base+"/events", "")
	if code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	if !bytes.Equal(replay, received) {
		t.Fatalf("late replay differs from the live frames:\nreplay %q\nlive   %q", replay, received)
	}
}
