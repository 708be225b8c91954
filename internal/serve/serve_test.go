package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/datasets"
)

// patientCSV is the paper's running example as a CSV body.
const patientCSV = `Name,Age,BloodPressure,Gender,Medicine
Kelly,60,High,Female,drugA
Jack,32,Low,Male,drugC
Nancy,28,Normal,Female,drugX
Lily,49,Low,Female,drugY
Ophelia,32,Normal,Female,drugX
Anna,49,Normal,Female,drugX
Esther,32,Low,Female,drugC
Richard,41,Normal,Male,drugY
Taylor,25,Low,Gender-queer,drugC
`

// patientBatch appends two rows to a patient session as one mutation
// batch.
var patientBatch = core.MutationBatch{Mutations: []core.Mutation{core.AppendOp([][]string{
	{"Zoe", "33", "High", "Female", "drugA"},
	{"Yann", "33", "High", "Male", "drugB"},
})}}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func doReq(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, blob
}

func submit(t *testing.T, base, csv string) submitDoc {
	t.Helper()
	code, blob := doReq(t, "POST", base+"/v1/sessions", csv)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", code, blob)
	}
	var doc submitDoc
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// waitState polls the session until it reaches want (or any terminal
// state), failing the test on timeout or on a different terminal state.
func waitState(t *testing.T, base, id, want string) sessionDoc {
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
		if last.State == want {
			return last
		}
		if last.State == stateCancelled || last.State == stateFailed || last.State == stateReady {
			t.Fatalf("session %s reached terminal state %q waiting for %q (job %+v)", id, last.State, want, last.Job)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never reached %q (last %q)", id, want, last.State)
	return last
}

// waitEvents polls until the session has published at least n events.
func waitEvents(t *testing.T, base, id string, n int) progressDoc {
	t.Helper()
	var doc progressDoc
	for i := 0; i < 2000; i++ {
		code, blob := doReq(t, "GET", base+"/v1/sessions/"+id+"/progress", "")
		if code != http.StatusOK {
			t.Fatalf("progress: status %d: %s", code, blob)
		}
		if err := json.Unmarshal(blob, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Events >= n {
			return doc
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session %s never published %d events (have %d)", id, n, doc.Events)
	return doc
}

func TestSubmitPollAndQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	if doc.Session == "" || doc.Job == "" {
		t.Fatalf("submit ack incomplete: %+v", doc)
	}
	sess := waitState(t, ts.URL, doc.Session, stateReady)
	if sess.Job == nil || sess.Job.Code != http.StatusOK {
		t.Fatalf("job not terminal-ok: %+v", sess.Job)
	}
	if sess.Rows != 9 || len(sess.Attrs) != 5 {
		t.Fatalf("session shape wrong: %+v", sess)
	}
	if sess.FDs == 0 {
		t.Fatal("no FDs discovered")
	}

	// FDs come back in the shared wire shape.
	code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/fds", "")
	if code != http.StatusOK {
		t.Fatalf("fds: status %d: %s", code, blob)
	}
	var fds fdsDoc
	if err := json.Unmarshal(blob, &fds); err != nil {
		t.Fatal(err)
	}
	if fds.Count == 0 || len(fds.Attrs) != 5 {
		t.Fatalf("fds doc wrong: count=%d attrs=%v", fds.Count, fds.Attrs)
	}
	var wire []struct {
		LHS []int `json:"lhs"`
		RHS int   `json:"rhs"`
	}
	if err := json.Unmarshal(fds.FDs, &wire); err != nil {
		t.Fatalf("fds not in {lhs,rhs} wire shape: %v: %s", err, fds.FDs)
	}
	if len(wire) != fds.Count {
		t.Fatalf("count %d != %d FDs", fds.Count, len(wire))
	}

	code, blob = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/stats", "")
	if code != http.StatusOK {
		t.Fatalf("stats: status %d: %s", code, blob)
	}
	var st statsDoc
	if err := json.Unmarshal(blob, &st); err != nil {
		t.Fatal(err)
	}
	if st.Rows != 9 || st.Appends != 1 || st.Stats.Rows != 9 {
		t.Fatalf("stats doc wrong: %+v", st)
	}

	code, blob = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/closure?attrs=Name", "")
	if code != http.StatusOK {
		t.Fatalf("closure: status %d: %s", code, blob)
	}
	var cl closureDoc
	if err := json.Unmarshal(blob, &cl); err != nil {
		t.Fatal(err)
	}
	if len(cl.Closure) == 0 || len(cl.Names) != len(cl.Closure) {
		t.Fatalf("closure doc wrong: %+v", cl)
	}

	code, blob = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/keys", "")
	if code != http.StatusOK {
		t.Fatalf("keys: status %d: %s", code, blob)
	}
	var keys keysDoc
	if err := json.Unmarshal(blob, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys.Keys) == 0 {
		t.Fatal("no candidate keys")
	}

	code, blob = doReq(t, "GET", ts.URL+"/v1/sessions", "")
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var list []sessionDoc
	if err := json.Unmarshal(blob, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != doc.Session {
		t.Fatalf("list wrong: %+v", list)
	}

	code, blob = doReq(t, "GET", ts.URL+"/v1/algorithms", "")
	if code != http.StatusOK {
		t.Fatalf("algorithms: status %d", code)
	}
	if !bytes.Contains(blob, []byte(`"euler"`)) {
		t.Fatalf("algorithms listing lacks euler: %s", blob)
	}
}

func TestAppendRediscovers(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, doc.Session, stateReady)

	code, blob := postMutations(t, ts.URL, doc.Session, patientBatch)
	if code != http.StatusAccepted {
		t.Fatalf("append: status %d: %s", code, blob)
	}
	sess := waitState(t, ts.URL, doc.Session, stateReady)
	if sess.Rows != 11 {
		t.Fatalf("rows after append = %d, want 11", sess.Rows)
	}

	// The serve result matches a direct Incremental run over the same
	// batches — the service adds no nondeterminism.
	relA, err := dataset.ReadCSV("patient", strings.NewReader(patientCSV), dataset.DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	inc, err := core.NewIncremental("patient", relA.Attrs, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range [][][]string{relA.Rows, patientBatch.Mutations[0].Rows} {
		if _, err := inc.Append(rows); err != nil {
			t.Fatal(err)
		}
	}
	wantBlob, err := inc.FDs().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	code, blob = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/fds", "")
	if code != http.StatusOK {
		t.Fatalf("fds: status %d", code)
	}
	var fds fdsDoc
	if err := json.Unmarshal(blob, &fds); err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, fds.FDs); err != nil {
		t.Fatal(err)
	}
	if compact.String() != string(wantBlob) {
		t.Fatalf("served FDs differ from direct Incremental run:\n%s\nvs\n%s", compact.String(), wantBlob)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes an SSE stream until the done event or EOF.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				out = append(out, cur)
				if cur.name == "done" {
					return out
				}
				cur = sseEvent{}
			}
		}
	}
	return out
}

func TestSSEStreamsPerCycleProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{CycleDelay: 20 * time.Millisecond})
	doc := submit(t, ts.URL, patientCSV)

	resp, err := http.Get(ts.URL + "/v1/sessions/" + doc.Session + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	progress := 0
	sampled, inverted := 0, 0
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("unexpected event %q before done", ev.name)
		}
		progress++
		var p core.Progress
		if err := json.Unmarshal([]byte(ev.data), &p); err != nil {
			t.Fatalf("progress payload: %v: %s", err, ev.data)
		}
		switch p.Phase {
		case "sampled":
			sampled++
		case "inverted":
			inverted++
		default:
			t.Fatalf("unknown phase %q", p.Phase)
		}
	}
	if progress < 2 || sampled == 0 || inverted == 0 {
		t.Fatalf("want ≥2 progress events with both phases, got %d (sampled=%d inverted=%d)",
			progress, sampled, inverted)
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("stream did not end with done: %+v", last)
	}
	var done doneDoc
	if err := json.Unmarshal([]byte(last.data), &done); err != nil {
		t.Fatal(err)
	}
	if done.Code != http.StatusOK || done.State != stateReady {
		t.Fatalf("done event wrong: %+v", done)
	}

	// A late subscriber replays the full history and terminates.
	resp2, err := http.Get(ts.URL + "/v1/sessions/" + doc.Session + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay := readSSE(t, resp2.Body)
	if len(replay) != len(events) {
		t.Fatalf("replay has %d events, live stream had %d", len(replay), len(events))
	}
}

// TestSubscribeSeesEveryDone pins the snapshot an events stream starts
// from: a job that ends right after the subscription was in flight at
// it, so its done event arrives on the channel, and a subscription
// after the end finds the done event in the replay. Reading the state
// after subscribing, in a critical section of its own, would see that
// first job as ended with its done event in neither, and the stream
// would end without it.
func TestSubscribeSeesEveryDone(t *testing.T) {
	sess := &session{state: stateRunning}
	replay, ch, inFlight := sess.subscribe()
	sess.mu.Lock()
	sess.state = stateReady
	sess.publishLocked(event{name: "done", data: doneDoc{Job: "j1"}})
	sess.mu.Unlock()
	if !inFlight || len(replay) != 0 {
		t.Fatalf("subscribed mid-job: in flight %v, replay %v", inFlight, replay)
	}
	select {
	case ev := <-ch:
		if ev.name != "done" {
			t.Fatalf("subscribed mid-job: got %q, want the done event", ev.name)
		}
	default:
		t.Fatal("subscribed mid-job: the done event did not arrive on the channel")
	}
	if replay, _, inFlight = sess.subscribe(); inFlight || len(replay) != 1 || replay[0].name != "done" {
		t.Fatalf("subscribed after the job: in flight %v, replay %v", inFlight, replay)
	}
}

func TestCancelMidRunFreesSlotAndRejectsAppend(t *testing.T) {
	// One job slot and a long per-cycle delay: the first job reliably
	// straddles the cancel, and the second session proves the slot came
	// back.
	_, ts := newTestServer(t, Config{MaxJobs: 1, CycleDelay: 400 * time.Millisecond})
	doc := submit(t, ts.URL, patientCSV)

	// The job is mid-run once the first per-cycle snapshot lands; it
	// then sleeps CycleDelay per event, leaving a wide cancel window
	// before the post-inversion context check.
	waitEvents(t, ts.URL, doc.Session, 1)
	code, blob := doReq(t, "POST", ts.URL+"/v1/sessions/"+doc.Session+"/cancel", "")
	if code != http.StatusAccepted {
		t.Fatalf("cancel: status %d: %s", code, blob)
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
		if sess.State != stateQueued && sess.State != stateRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sess.State != stateCancelled {
		t.Fatalf("state after cancel = %q, want %q", sess.State, stateCancelled)
	}
	if sess.Job == nil || sess.Job.Code != StatusClientClosedRequest {
		t.Fatalf("cancelled job should report 499, got %+v", sess.Job)
	}

	// Append after cancel: 409, the state is no longer a completed run.
	code, blob = postMutations(t, ts.URL, doc.Session, patientBatch)
	if code != http.StatusConflict {
		t.Fatalf("append after cancel: status %d, want 409: %s", code, blob)
	}
	// Cancelling again: nothing in flight.
	code, _ = doReq(t, "POST", ts.URL+"/v1/sessions/"+doc.Session+"/cancel", "")
	if code != http.StatusConflict {
		t.Fatalf("second cancel: status %d, want 409", code)
	}

	// The slot is free: a fresh session completes under MaxJobs = 1.
	doc2 := submit(t, ts.URL, "A,B\n1,x\n2,y\n1,x\n")
	sess2 := waitState(t, ts.URL, doc2.Session, stateReady)
	if sess2.Job == nil || sess2.Job.Code != http.StatusOK {
		t.Fatalf("second session did not complete: %+v", sess2.Job)
	}
}

func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{CycleDelay: 50 * time.Millisecond})
	doc := submit(t, ts.URL, patientCSV)
	waitEvents(t, ts.URL, doc.Session, 1)

	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(t.Context()) }()

	// New work is refused while draining. Drain is flipped before the
	// goroutine starts waiting, but give it a beat to be safe.
	var code int
	for i := 0; i < 200; i++ {
		code, _ = doReq(t, "POST", ts.URL+"/v1/sessions", patientCSV)
		if code == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: status %d, want 503", code)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The in-flight job was not abandoned: it ran to completion.
	code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session, "")
	if code != http.StatusOK {
		t.Fatalf("get session after drain: %d", code)
	}
	var sess sessionDoc
	if err := json.Unmarshal(blob, &sess); err != nil {
		t.Fatal(err)
	}
	if sess.State != stateReady || sess.Job == nil || sess.Job.Code != http.StatusOK {
		t.Fatalf("drained job not completed: %+v", sess)
	}
}

// TestTwoConcurrentSessions exercises the store and job manager under
// parallel load over registry corpora; `make race` runs it with -race.
func TestTwoConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxJobs: 2})
	names := []string{"iris", "abalone"}
	docs := make([]submitDoc, len(names))
	for i, name := range names {
		info, err := datasets.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, info.Build()); err != nil {
			t.Fatal(err)
		}
		docs[i] = submit(t, ts.URL, buf.String())
	}
	for i, doc := range docs {
		sess := waitState(t, ts.URL, doc.Session, stateReady)
		if sess.FDs == 0 {
			t.Errorf("%s: no FDs", names[i])
		}
	}
	code, blob := doReq(t, "GET", ts.URL+"/v1/sessions", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list []sessionDoc
	if err := json.Unmarshal(blob, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0].ID != docs[0].Session || list[1].ID != docs[1].Session {
		t.Fatalf("listing not in creation order: %+v", list)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})

	code, _ := doReq(t, "GET", ts.URL+"/v1/sessions/nope", "")
	if code != http.StatusNotFound {
		t.Errorf("unknown session: %d, want 404", code)
	}
	code, _ = doReq(t, "POST", ts.URL+"/v1/sessions", "not\"csv\n\"x")
	if code != http.StatusBadRequest {
		t.Errorf("bad csv: %d, want 400", code)
	}

	doc := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, doc.Session, stateReady)

	// Session limit.
	code, _ = doReq(t, "POST", ts.URL+"/v1/sessions", patientCSV)
	if code != http.StatusTooManyRequests {
		t.Errorf("over session limit: %d, want 429", code)
	}
	// Column-count mismatch on append.
	code, _ = postMutations(t, ts.URL, doc.Session, core.MutationBatch{
		Mutations: []core.Mutation{core.AppendOp([][]string{{"a", "b"}})},
	})
	if code != http.StatusBadRequest {
		t.Errorf("short append row: %d, want 400", code)
	}
	// Closure of an unknown attribute.
	code, _ = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/closure?attrs=Nope", "")
	if code != http.StatusBadRequest {
		t.Errorf("bad closure attr: %d, want 400", code)
	}
	code, _ = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/closure", "")
	if code != http.StatusBadRequest {
		t.Errorf("missing closure attrs: %d, want 400", code)
	}

	// Delete frees the session slot.
	code, _ = doReq(t, "DELETE", ts.URL+"/v1/sessions/"+doc.Session, "")
	if code != http.StatusNoContent {
		t.Errorf("delete: %d, want 204", code)
	}
	code, _ = doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session, "")
	if code != http.StatusNotFound {
		t.Errorf("deleted session still resolves: %d", code)
	}
	doc2 := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, doc2.Session, stateReady)
}

func TestResolveAttrs(t *testing.T) {
	attrs := []string{"A", "B", "C"}
	got, err := resolveAttrs("A,2, B", attrs)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[0 2 1]" {
		t.Fatalf("resolveAttrs = %v", got)
	}
	if _, err := resolveAttrs("D", attrs); err == nil {
		t.Error("unknown name should fail")
	}
	if _, err := resolveAttrs("7", attrs); err == nil {
		t.Error("out-of-range index should fail")
	}
	if _, err := resolveAttrs("", attrs); err == nil {
		t.Error("empty list should fail")
	}
}

func TestPprofMountIsOptIn(t *testing.T) {
	_, off := newTestServer(t, Config{})
	if code, _ := doReq(t, "GET", off.URL+"/debug/pprof/", ""); code != http.StatusNotFound {
		t.Fatalf("pprof disabled: GET /debug/pprof/ = %d, want 404", code)
	}

	_, on := newTestServer(t, Config{Pprof: true})
	code, body := doReq(t, "GET", on.URL+"/debug/pprof/", "")
	if code != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/ = %d, want 200", code)
	}
	if !bytes.Contains(body, []byte("heap")) {
		t.Fatalf("pprof index missing profile listing: %q", body)
	}
	if code, _ := doReq(t, "GET", on.URL+"/debug/pprof/heap?debug=1", ""); code != http.StatusOK {
		t.Fatalf("pprof enabled: GET /debug/pprof/heap = %d, want 200", code)
	}
}
