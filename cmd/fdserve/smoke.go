package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"eulerfd/internal/serve"
)

// smokeCSV is the paper's running example.
const smokeCSV = `Name,Age,BloodPressure,Gender,Medicine
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

// smokeBatch appends two rows as one mutation batch.
const smokeBatch = `{"mutations":[{"op":"append","rows":[
	["Zoe","33","High","Female","drugA"],
	["Yann","33","High","Male","drugB"]
]}]}`

// runSmoke boots the service on a random loopback port and drives the
// full client flow against it: submit, per-cycle SSE progress, append,
// result queries, mid-run cancellation with slot reclaim, and drain.
func runSmoke(cfg serve.Config, stdout io.Writer) error {
	if cfg.CycleDelay <= 0 {
		// A per-cycle pause makes the cancellation step deterministic:
		// the job is reliably still running when the cancel arrives.
		cfg.CycleDelay = 200 * time.Millisecond
	}
	cfg.MaxJobs = 1 // a reclaimed slot is observable only when there is exactly one

	handler := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: handler}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Fprintf(stdout, "fdserve: smoke server on %s\n", base)

	step := func(name string, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(stdout, "fdserve: smoke: %-28s ok\n", name)
		return nil
	}

	if err := step("healthz", smokeGet(base+"/v1/healthz", nil)); err != nil {
		return err
	}

	// Submit and stream per-cycle progress over SSE.
	var ack struct{ Session, Job string }
	if err := step("submit csv", smokePost(base+"/v1/sessions?name=patient", smokeCSV, http.StatusAccepted, &ack)); err != nil {
		return err
	}
	if err := step("sse progress", smokeSSE(base, ack.Session)); err != nil {
		return err
	}

	// Query the completed result.
	var fds struct {
		Count int `json:"count"`
	}
	if err := step("query fds", smokeGet(base+"/v1/sessions/"+ack.Session+"/fds", &fds)); err != nil {
		return err
	}
	if fds.Count == 0 {
		return fmt.Errorf("query fds: no dependencies found")
	}
	if err := step("query stats", smokeGet(base+"/v1/sessions/"+ack.Session+"/stats", nil)); err != nil {
		return err
	}
	if err := step("query closure", smokeGet(base+"/v1/sessions/"+ack.Session+"/closure?attrs=Name", nil)); err != nil {
		return err
	}
	if err := step("query keys", smokeGet(base+"/v1/sessions/"+ack.Session+"/keys", nil)); err != nil {
		return err
	}
	var afds struct {
		Mode  string `json:"mode"`
		Count int    `json:"count"`
	}
	if err := step("query afds", smokeGet(base+"/v1/sessions/"+ack.Session+"/afds?measure=g3&eps=0.1", &afds)); err != nil {
		return err
	}
	if afds.Mode != "threshold" || afds.Count == 0 {
		return fmt.Errorf("query afds: mode %q, count %d", afds.Mode, afds.Count)
	}
	var ens struct {
		Members int `json:"members"`
		Count   int `json:"count"`
	}
	if err := step("query ensemble", smokeGet(base+"/v1/sessions/"+ack.Session+"/fds?ensemble=3&seed=1", &ens)); err != nil {
		return err
	}
	if ens.Members != 3 || ens.Count == 0 {
		return fmt.Errorf("query ensemble: members %d, count %d", ens.Members, ens.Count)
	}
	var qual struct {
		Version int64 `json:"version"`
		K       int   `json:"k"`
		Ranked  []any `json:"ranked"`
	}
	if err := step("query quality", smokeGet(base+"/v1/sessions/"+ack.Session+"/quality?k=3", &qual)); err != nil {
		return err
	}
	if qual.K != 3 || len(qual.Ranked) == 0 || qual.Version != 1 {
		return fmt.Errorf("query quality: k %d, %d ranked, version %d", qual.K, len(qual.Ranked), qual.Version)
	}

	// Append a batch and wait for re-discovery.
	var ack2 struct{ Session, Job string }
	if err := step("append batch", smokePost(base+"/v1/sessions/"+ack.Session+"/mutations", smokeBatch, http.StatusAccepted, &ack2)); err != nil {
		return err
	}
	if err := step("append completes", smokeWaitState(base, ack.Session, "ready")); err != nil {
		return err
	}

	// Post a mixed mutation batch to the session's log and read back
	// behind a version barrier.
	const smokeMutations = `{"mutations":[
		{"op":"delete","ids":[8]},
		{"op":"update","ids":[1],"rows":[["Jack","33","Low","Male","drugC"]]},
		{"op":"append","rows":[["Wanda","25","Low","Female","drugC"]]}
	]}`
	var ackM struct {
		Session, Job string
		Version      int64 `json:"version"`
	}
	if err := step("post mutations", smokePost(base+"/v1/sessions/"+ack.Session+"/mutations", smokeMutations, http.StatusAccepted, &ackM)); err != nil {
		return err
	}
	if ackM.Version != 2 {
		return fmt.Errorf("post mutations: accepted on version %d, want 2", ackM.Version)
	}
	if err := step("mutations commit", smokeWaitState(base, ack.Session, "ready")); err != nil {
		return err
	}
	var stats struct {
		Rows    int   `json:"rows"`
		Version int64 `json:"version"`
		Deletes int64 `json:"deletes"`
		Updates int64 `json:"updates"`
	}
	if err := step("stats carry version", smokeGet(base+"/v1/sessions/"+ack.Session+"/stats", &stats)); err != nil {
		return err
	}
	if stats.Version != 3 || stats.Rows != 11 || stats.Deletes != 1 || stats.Updates != 1 {
		return fmt.Errorf("stats after mutations: %+v", stats)
	}
	if err := step("min_version met", smokeGet(base+"/v1/sessions/"+ack.Session+"/fds?min_version=3", nil)); err != nil {
		return err
	}
	// Re-read the quality report behind the same barrier: it must be
	// recomputed over the mutated snapshot and stamped with its version.
	if err := step("quality after mutations", smokeGet(base+"/v1/sessions/"+ack.Session+"/quality?min_version=3", &qual)); err != nil {
		return err
	}
	if qual.Version != 3 {
		return fmt.Errorf("quality after mutations: version %d, want 3", qual.Version)
	}
	var stale int
	if err := smokeGetStatus(base+"/v1/sessions/"+ack.Session+"/fds?min_version=99", &stale); err != nil {
		return err
	}
	if stale != http.StatusPreconditionFailed {
		return fmt.Errorf("future min_version: status %d, want 412", stale)
	}
	fmt.Fprintf(stdout, "fdserve: smoke: %-28s ok\n", "stale read is 412")

	// Cancel a second long-running job mid-cycle: 499, slot reclaimed.
	var ack3 struct{ Session, Job string }
	if err := step("submit second", smokePost(base+"/v1/sessions?name=second", smokeCSV, http.StatusAccepted, &ack3)); err != nil {
		return err
	}
	if err := step("second emits progress", smokeWaitEvents(base, ack3.Session, 1)); err != nil {
		return err
	}
	if err := step("cancel second", smokePost(base+"/v1/sessions/"+ack3.Session+"/cancel", "", http.StatusAccepted, nil)); err != nil {
		return err
	}
	if err := step("second reports 499", smokeWaitCancelled(base, ack3.Session)); err != nil {
		return err
	}
	var conflict int
	if err := smokePostStatus(base+"/v1/sessions/"+ack3.Session+"/mutations", smokeBatch, &conflict); err != nil {
		return err
	}
	if conflict != http.StatusConflict {
		return fmt.Errorf("append after cancel: status %d, want 409", conflict)
	}
	fmt.Fprintf(stdout, "fdserve: smoke: %-28s ok\n", "append after cancel is 409")
	// The slot came back: a third session completes under MaxJobs = 1.
	var ack4 struct{ Session, Job string }
	if err := step("slot reclaimed", smokePost(base+"/v1/sessions?name=third", "A,B\n1,x\n2,y\n1,x\n", http.StatusAccepted, &ack4)); err != nil {
		return err
	}
	if err := step("third completes", smokeWaitState(base, ack4.Session, "ready")); err != nil {
		return err
	}

	// Graceful drain.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := step("drain", handler.Drain(drainCtx)); err != nil {
		return err
	}
	return nil
}

func smokeGet(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, blob)
	}
	if out != nil {
		return json.Unmarshal(blob, out)
	}
	return nil
}

func smokePost(url, body string, want int, out any) error {
	resp, err := http.Post(url, "text/csv", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d, want %d: %s", resp.StatusCode, want, blob)
	}
	if out != nil {
		return json.Unmarshal(blob, out)
	}
	return nil
}

func smokeGetStatus(url string, status *int) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	*status = resp.StatusCode
	return nil
}

func smokePostStatus(url, body string, status *int) error {
	resp, err := http.Post(url, "text/csv", strings.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	*status = resp.StatusCode
	return nil
}

// smokeSSE streams the session's events and checks for at least two
// per-cycle progress snapshots followed by a successful done event.
func smokeSSE(base, session string) error {
	resp, err := http.Get(base + "/v1/sessions/" + session + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	progress := 0
	var name string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch name {
			case "progress":
				progress++
			case "done":
				var done struct {
					Code int `json:"code"`
				}
				if err := json.Unmarshal([]byte(data), &done); err != nil {
					return err
				}
				if done.Code != http.StatusOK {
					return fmt.Errorf("done code %d", done.Code)
				}
				if progress < 2 {
					return fmt.Errorf("only %d progress events before done, want >= 2", progress)
				}
				return nil
			}
		}
	}
	return fmt.Errorf("stream ended without a done event (%d progress events)", progress)
}

func smokeWaitState(base, session, want string) error {
	var doc struct {
		State string `json:"state"`
	}
	for i := 0; i < 3000; i++ {
		if err := smokeGet(base+"/v1/sessions/"+session, &doc); err != nil {
			return err
		}
		if doc.State == want {
			return nil
		}
		if doc.State == "cancelled" || doc.State == "failed" {
			return fmt.Errorf("terminal state %q, want %q", doc.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("state stuck at %q, want %q", doc.State, want)
}

func smokeWaitEvents(base, session string, n int) error {
	var doc struct {
		Events int `json:"events"`
	}
	for i := 0; i < 3000; i++ {
		if err := smokeGet(base+"/v1/sessions/"+session+"/progress", &doc); err != nil {
			return err
		}
		if doc.Events >= n {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("only %d events, want >= %d", doc.Events, n)
}

func smokeWaitCancelled(base, session string) error {
	var doc struct {
		State string `json:"state"`
		Job   *struct {
			Code int `json:"code"`
		} `json:"job"`
	}
	for i := 0; i < 3000; i++ {
		if err := smokeGet(base+"/v1/sessions/"+session, &doc); err != nil {
			return err
		}
		switch doc.State {
		case "cancelled":
			if doc.Job == nil || doc.Job.Code != serve.StatusClientClosedRequest {
				return fmt.Errorf("cancelled job code = %+v, want 499", doc.Job)
			}
			return nil
		case "ready", "failed":
			return fmt.Errorf("job finished %q before the cancel landed", doc.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("cancel never took effect (state %q)", doc.State)
}
