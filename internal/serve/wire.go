package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
	"eulerfd/internal/quality"
)

// StatusClientClosedRequest is the nginx-convention status for a request
// terminated by the client. Cancelled discovery jobs report it as their
// terminal code.
const StatusClientClosedRequest = 499

// errorDoc is the JSON body of every non-2xx response. Version is set
// only on 412 Precondition Failed answers to ?min_version= reads, where
// it reports the session's current committed version so the client can
// tell how stale it is.
type errorDoc struct {
	Error   string `json:"error"`
	Version int64  `json:"version,omitempty"`
}

// jobDoc describes one discovery job on the wire.
type jobDoc struct {
	ID string `json:"id"`
	// Code is the job's terminal HTTP-style status: 0 while queued or
	// running, 200 on success, 499 when cancelled, 504 on deadline,
	// 400/500 on error.
	Code  int    `json:"code"`
	Error string `json:"error,omitempty"`
}

// sessionDoc describes one session on the wire. Version is the
// session's committed mutation-log position: 0 until the first job
// completes, then incremented by exactly one per committed batch.
type sessionDoc struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Attrs   []string `json:"attrs"`
	Rows    int      `json:"rows"`
	State   string   `json:"state"`
	Version int64    `json:"version"`
	FDs     int      `json:"fds"`
	Events  int      `json:"events"`
	Job     *jobDoc  `json:"job,omitempty"`
}

// submitDoc acknowledges a new session or a mutation batch: the
// job is accepted but not necessarily finished. Version is the
// committed version the batch was accepted on top of; once the job's
// done event reports version+1, the batch is committed.
type submitDoc struct {
	Session string `json:"session"`
	Job     string `json:"job"`
	Version int64  `json:"version"`
}

// doneDoc is the terminal event of a job's progress stream. Version is
// the session's committed version after the job: a job that commits
// reports the predecessor's version + 1; a cancelled or failed delta
// batch rolls back and reports the unchanged predecessor version with
// State "ready" and a non-200 Code.
type doneDoc struct {
	Job     string `json:"job"`
	State   string `json:"state"`
	Code    int    `json:"code"`
	Error   string `json:"error,omitempty"`
	Version int64  `json:"version"`
}

// progressDoc answers the polling endpoint: the latest snapshot plus the
// session's lifecycle position.
type progressDoc struct {
	State  string         `json:"state"`
	Events int            `json:"events"`
	Latest *core.Progress `json:"latest"`
	Done   *doneDoc       `json:"done,omitempty"`
}

// fdsBody renders the /fds document of a discovered FD set: attrs (the
// names FD indices resolve to), version (the committed state the cover
// describes), count, and fds, each {"lhs":[indices],"rhs":index}, in
// canonical order. The bytes are those writeJSON would write, indented
// with a trailing newline. The FDs are written in that form directly
// from the set (fdset.AppendIndentJSON), with no copy or sort; only the
// attribute names go through encoding/json, for its string escaping.
func fdsBody(attrs []string, version int64, fds *fdset.Set) ([]byte, error) {
	names, err := json.MarshalIndent(attrs, "  ", "  ")
	if err != nil {
		return nil, err
	}
	dst := append([]byte("{\n  \"attrs\": "), names...)
	dst = append(dst, ",\n  \"version\": "...)
	dst = strconv.AppendInt(dst, version, 10)
	dst = append(dst, ",\n  \"count\": "...)
	dst = strconv.AppendInt(dst, int64(fds.Len()), 10)
	dst = append(dst, ",\n  \"fds\": "...)
	dst = fdset.AppendIndentJSON(dst, fds, "  ", "  ")
	return append(dst, "\n}\n"...), nil
}

// afdsDoc answers an approximate-FD query. FDs serialize as
// {"lhs":[indices],"rhs":index,"score":error}: threshold mode lists
// them in canonical FD order with eps echoed back, top-k mode lists
// them best-error-first with k echoed back.
type afdsDoc struct {
	Attrs   []string         `json:"attrs"`
	Version int64            `json:"version"`
	Measure string           `json:"measure"`
	Mode    string           `json:"mode"`
	Epsilon float64          `json:"eps,omitempty"`
	K       int              `json:"k,omitempty"`
	Count   int              `json:"count"`
	FDs     []fdset.ScoredFD `json:"fds"`
}

// ensembleFDDoc is one voted candidate of an ensemble query:
// {"lhs":[indices],"rhs":index} plus its vote tally, confidence
// (votes/members), and the exact g3 error when cross-checked. Suspect
// marks candidates the cross-check refutes (g3 > 0 on the full
// relation: the FD provably does not hold).
type ensembleFDDoc struct {
	LHS        []int   `json:"lhs"`
	RHS        int     `json:"rhs"`
	Confidence float64 `json:"confidence"`
	Votes      int     `json:"votes"`
	G3         float64 `json:"g3"`
	Suspect    bool    `json:"suspect,omitempty"`
}

// ensembleDoc answers an ensemble query (?ensemble=N): every candidate
// any member reported, strongest first, with the majority size and
// suspect count summarized.
type ensembleDoc struct {
	Attrs    []string        `json:"attrs"`
	Members  int             `json:"members"`
	Seed     uint64          `json:"seed"`
	Count    int             `json:"count"`
	Majority int             `json:"majority"`
	Suspects int             `json:"suspects"`
	FDs      []ensembleFDDoc `json:"fds"`
}

// ensembleProgressDoc is the event payload published after each
// completed ensemble member run.
type ensembleProgressDoc struct {
	Completed int `json:"completed"`
	Total     int `json:"total"`
}

// statsDoc carries the statistics of the last completed job plus the
// session's cumulative mutation counters. NextID is the row id the next
// appended row will receive — clients address deletes and updates by
// these ids.
type statsDoc struct {
	Rows    int        `json:"rows"`
	Version int64      `json:"version"`
	Appends int        `json:"appends"`
	Deletes int        `json:"deletes"`
	Updates int        `json:"updates"`
	NextID  int64      `json:"next_id"`
	Stats   core.Stats `json:"stats"`
}

// qualityDoc answers GET /v1/sessions/{id}/quality. The body is the
// pinned quality.Report wire shape — ranked dependencies, violating
// clusters, repair plans, normalization advice — with the version field
// stamped from the session's committed mutation-log position, so
// ?min_version= readers can correlate the report with the snapshot it
// describes.
type qualityDoc = quality.Report

// closureDoc answers an attribute-closure query.
type closureDoc struct {
	Attrs   []int    `json:"attrs"`
	Closure []int    `json:"closure"`
	Names   []string `json:"names"`
}

// keysDoc answers a candidate-key query.
type keysDoc struct {
	Keys [][]int `json:"keys"`
}

// writeJSON writes v with the given status. Encoding errors after the
// header is out are unrecoverable and ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorDoc{Error: msg})
}
