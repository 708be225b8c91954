package serve

import (
	"context"
	"sync"

	"eulerfd/internal/afd"
	"eulerfd/internal/core"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
)

// Session lifecycle states. The machine is documented in DESIGN.md:
//
//	queued → running → ready → mutations → queued → …
//	queued|running → ready            (cancelled/failed DELTA batch: rollback)
//	queued|running → cancelled        (terminal: cancelled BOOTSTRAP)
//	queued|running → failed           (terminal: bootstrap deadline or data error)
//
// ready is the only state that accepts new batches and result queries.
// A delta batch (any job after the first committed run) scans against a
// virtual overlay and commits atomically, so cancelling or failing one
// rolls the session back to its last committed version and returns it
// to ready — the job's done event records the non-200 code. Only the
// bootstrap run mutates covers in place as it goes: cancelling it
// poisons the Incremental (core.ErrPoisoned), so a cancelled or failed
// first run is terminal and the session must be deleted.
const (
	stateQueued    = "queued"
	stateRunning   = "running"
	stateReady     = "ready"
	stateCancelled = "cancelled"
	stateFailed    = "failed"
)

// event is one entry of a session's progress history: a per-cycle
// Progress snapshot or the terminal done marker.
type event struct {
	name string // "progress" or "done"
	data any    // core.Progress or doneDoc
}

// job is one discovery run (initial submit or mutation batch) on a session.
type job struct {
	id   string
	code int // 0 until terminal
	err  string
}

// session holds one dataset's incremental discovery state.
type session struct {
	id  string
	num int // creation order, for deterministic listings

	mu      sync.Mutex
	name    string
	attrs   []string
	state   string // guarded by mu
	inc     *core.Incremental
	fds     *fdset.Set         // last completed result, guarded by mu
	stats   core.Stats         // stats of the last completed job, guarded by mu
	rows    int                // alive rows after the last committed batch, guarded by mu
	version int64              // committed mutation-log position, guarded by mu
	appends int                // committed batches, guarded by mu
	deletes int                // rows deleted by committed batches, guarded by mu
	updates int                // rows rewritten by committed batches, guarded by mu
	nextID  int64              // id the next appended row will get, guarded by mu
	current *job               // most recent job, guarded by mu
	cancel  context.CancelFunc // cancels the running job, guarded by mu
	history []event            // guarded by mu
	subs    []chan event       // live SSE subscribers, in order, guarded by mu

	// scorer serves /afds and /quality queries over the last completed
	// result, and snap is the Incremental snapshot it was built over.
	// Both are built lazily and shared by concurrent requests
	// (afd.Scorer is concurrency-safe). When a later batch commits,
	// finishJob drops them, and the next query builds them over the new
	// snapshot; a rolled-back batch leaves them untouched.
	scorer *afd.Scorer
	snap   *preprocess.Encoded
}

// doc renders the session for the wire. Callers must not hold s.mu.
func (s *session) doc() sessionDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := sessionDoc{
		ID:      s.id,
		Name:    s.name,
		Attrs:   s.attrs,
		Rows:    s.rows,
		State:   s.state,
		Version: s.version,
		Events:  len(s.history),
	}
	if s.fds != nil {
		d.FDs = s.fds.Len()
	}
	if s.current != nil {
		d.Job = &jobDoc{ID: s.current.id, Code: s.current.code, Error: s.current.err}
	}
	return d
}

// publish appends ev to the history and fans it out to subscribers.
func (s *session) publish(ev event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(ev)
}

// publishLocked is publish for callers that hold s.mu. Sends never
// block: subscriber channels are buffered generously and a full one (an
// SSE client that stopped reading) is skipped — the client still sees
// the event on reconnect via the history replay.
//
//fdlint:mustlock mu
func (s *session) publishLocked(ev event) {
	s.history = append(s.history, ev)
	for _, ch := range s.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// subscribe returns a copy of the history so far, a channel carrying
// every event published afterwards, and whether a job was in flight. It
// reads all three in one critical section: finishJob publishes a job's
// done event in the one that ends the job, so the done event of a job
// not in flight is in the copy, and that of a job in flight arrives on
// the channel. Reading the state in a later critical section would miss
// a done event published in between.
func (s *session) subscribe() (replay []event, ch chan event, inFlight bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ch = make(chan event, 256)
	s.subs = append(s.subs, ch)
	replay = make([]event, len(s.history))
	copy(replay, s.history)
	return replay, ch, s.state == stateQueued || s.state == stateRunning
}

// unsubscribe removes a subscriber channel.
func (s *session) unsubscribe(ch chan event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.subs {
		if c == ch {
			s.subs = append(s.subs[:i], s.subs[i+1:]...)
			return
		}
	}
}

// scoringView is everything an /afds or /quality request reads: the
// session's scorer, the snapshot it was built over, and the committed
// cover, attributes and version they describe.
type scoringView struct {
	scorer  *afd.Scorer
	enc     *preprocess.Encoded
	cover   *fdset.Set
	attrs   []string
	version int64
}

// scoring returns the scoring view from one critical section, so a
// concurrent commit cannot mix versions, building the scorer on first
// use. ok = false when the session has no completed result to score
// against or a job is in flight. Taking the Incremental snapshot under
// s.mu is safe: state == ready means no job is in flight (startJob flips
// the state to queued under this mutex before a job may touch inc), and
// the snapshot itself stays valid even after later batches (see
// core.Incremental.Snapshot).
func (s *session) scoring() (scoringView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateReady {
		return scoringView{}, false
	}
	if s.scorer == nil {
		s.snap = s.inc.Snapshot()
		s.scorer = afd.NewScorer(s.snap, 0)
	}
	return scoringView{scorer: s.scorer, enc: s.snap, cover: s.fds, attrs: s.attrs, version: s.version}, true
}

// snapshotEncoded returns an immutable encoding of every row absorbed
// so far, for ensemble re-discovery. ok = false when the session has no
// completed result. The same safety argument as scoring applies:
// ready means no job touches inc, and the snapshot outlives appends.
func (s *session) snapshotEncoded() (*preprocess.Encoded, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != stateReady {
		return nil, false
	}
	return s.inc.Snapshot(), true
}

// snapshotResult returns the last committed result and its version, or
// ok = false when no job has completed yet.
func (s *session) snapshotResult() (*fdset.Set, []string, int, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fds == nil {
		return nil, nil, 0, 0, false
	}
	return s.fds, s.attrs, len(s.attrs), s.version, true
}

// versionAtLeast reports whether the committed version has reached min.
// It returns the current version for the 412 error body.
func (s *session) versionAtLeast(min int64) (int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version, s.version >= min
}
