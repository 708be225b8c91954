// Package serve implements fdserve, an embeddable HTTP service for FD
// discovery. It manages a bounded store of discovery sessions, each
// holding one dataset's core.Incremental state: submitting a CSV starts
// a discovery job, and the mutation-log endpoint applies batches of
// appends, deletes, and row updates that maintain the cover
// incrementally. Every committed batch advances a monotone session
// version echoed in every result document; readers pass ?min_version=
// to detect stale reads (412 until the version commits). Query
// endpoints (FDs, stats, closure, keys) answer against the last
// committed result. Per-cycle progress is pollable as JSON and
// streamable as server-sent events; jobs honor cancellation and
// deadlines cooperatively at cycle boundaries — a cancelled delta batch
// rolls the session back to its last committed version — and Drain
// lets a host shut down gracefully without abandoning in-flight work.
//
// The package is fdlint-gated: it never reads wall-clock time, session
// and job IDs are small deterministic counters, and listings are sorted
// by creation order — two identical request sequences produce identical
// responses (modulo run statistics).
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eulerfd/internal/afd"
	"eulerfd/internal/algo"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/ensemble"
	"eulerfd/internal/fdset"
	"eulerfd/internal/infer"
	"eulerfd/internal/quality"
)

// Config bounds the service.
type Config struct {
	// MaxSessions caps live sessions; submits beyond it return 429.
	// Default 16.
	MaxSessions int
	// MaxJobs caps concurrently running discovery jobs; excess jobs
	// queue. Default 2.
	MaxJobs int
	// Euler configures every discovery run. Euler.Workers selects the
	// internal/pool size each job samples and inverts with.
	Euler core.Options
	// JobTimeout is the per-job deadline; 0 means none. A job past its
	// deadline terminates with code 504 at the next cycle boundary.
	JobTimeout time.Duration
	// CycleDelay pauses the job after each progress event. It exists for
	// tests and the smoke mode, which need jobs that are reliably still
	// running when a cancel arrives.
	CycleDelay time.Duration
	// MaxBodyBytes caps request bodies. Default 64 MiB.
	MaxBodyBytes int64
	// Pprof mounts the net/http/pprof handlers under /debug/pprof/.
	// Off by default: the profiling endpoints expose goroutine dumps and
	// CPU profiles of the whole process, so hosts opt in explicitly
	// (fdserve -pprof).
	Pprof bool
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 16
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 2
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 64 << 20
	}
	return c
}

// Server is the fdserve HTTP handler. Create with New, mount anywhere,
// and call Drain before exiting.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	slots chan struct{} // job-concurrency semaphore
	wg    sync.WaitGroup

	mu       sync.Mutex
	draining bool                // guarded by mu
	sessions map[string]*session // guarded by mu
	nextSess int                 // guarded by mu
	nextJob  int                 // guarded by mu
}

// New builds a Server with cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		slots:    make(chan struct{}, cfg.MaxJobs),
		sessions: make(map[string]*session),
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/algorithms", s.handleAlgorithms)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/sessions", s.handleList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSession)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/mutations", s.handleMutations)
	s.mux.HandleFunc("POST /v1/sessions/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /v1/sessions/{id}/fds", s.handleFDs)
	s.mux.HandleFunc("GET /v1/sessions/{id}/afds", s.handleAFDs)
	s.mux.HandleFunc("GET /v1/sessions/{id}/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/sessions/{id}/progress", s.handleProgress)
	s.mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/sessions/{id}/closure", s.handleClosure)
	s.mux.HandleFunc("GET /v1/sessions/{id}/keys", s.handleKeys)
	s.mux.HandleFunc("GET /v1/sessions/{id}/quality", s.handleQuality)
	if cfg.Pprof {
		// Explicit registrations on the server's own mux; the package-level
		// side registrations on http.DefaultServeMux are never served.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain stops accepting new jobs (submits and mutation batches return
// 503) and waits for in-flight jobs to finish, or for ctx to expire.
// Running jobs are not cancelled: drain is graceful.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	n := len(s.sessions)
	draining := s.draining
	s.mu.Unlock()
	state := "ok"
	if draining {
		state = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": state, "sessions": n})
}

func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, algo.List())
}

// parseCSVBody reads the request body as CSV using the sep/header query
// parameters (defaults "," and true).
func parseCSVBody(r *http.Request, name string) (*dataset.Relation, error) {
	opt := dataset.DefaultCSVOptions()
	if v := r.URL.Query().Get("sep"); v != "" {
		if len(v) != 1 {
			return nil, fmt.Errorf("sep must be a single character")
		}
		opt.Comma = rune(v[0])
	}
	if v := r.URL.Query().Get("header"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return nil, fmt.Errorf("header must be a boolean, got %q", v)
		}
		opt.HasHeader = b
	}
	return dataset.ReadCSV(name, r.Body, opt)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "dataset"
	}
	rel, err := parseCSVBody(r, name)
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse csv: "+err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("session limit (%d) reached; delete one first", s.cfg.MaxSessions))
		return
	}
	inc, err := core.NewIncremental(name, rel.Attrs, s.cfg.Euler)
	if err != nil {
		s.mu.Unlock()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.nextSess++
	sess := &session{
		id:    fmt.Sprintf("s%d", s.nextSess),
		num:   s.nextSess,
		name:  name,
		attrs: rel.Attrs,
		inc:   inc,
	}
	s.sessions[sess.id] = sess
	s.mu.Unlock()

	// The submitted rows are the session's bootstrap batch.
	batch := core.MutationBatch{Mutations: []core.Mutation{core.AppendOp(rel.Rows)}}
	jobID, version, status, msg := s.startJob(r.Context(), sess, batch)
	if status != 0 {
		// The freshly created session cannot have a job in flight; only
		// a drain begun between the two locks can land here.
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		writeError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusAccepted, submitDoc{Session: sess.id, Job: jobID, Version: version})
}

// handleMutations applies one versioned mutation batch — a JSON
// core.MutationBatch of append, delete, and update operations — as a
// single atomic discovery job. The 202 ack echoes the committed version
// the batch was accepted on top of; the job's done event (and every
// later result document) carries the post-commit version. Shape errors
// are rejected synchronously with 400; id resolution errors surface as
// a failed job that rolls the session back to its committed state.
func (s *Server) handleMutations(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var batch core.MutationBatch
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&batch); err != nil {
		writeError(w, http.StatusBadRequest, "parse mutation batch: "+err.Error())
		return
	}
	sess.mu.Lock()
	ncols := len(sess.attrs)
	sess.mu.Unlock()
	if err := batch.Validate(ncols); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	jobID, version, status, msg := s.startJob(r.Context(), sess, batch)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	writeJSON(w, http.StatusAccepted, submitDoc{Session: sess.id, Job: jobID, Version: version})
}

// startJob enqueues one mutation batch on sess as a discovery job: the
// session's first batch bootstraps it, every later one is a delta. It
// returns the job id and the committed version the run was accepted on
// top of, or a non-zero HTTP status and message on refusal. The job must
// outlive the submitting request (the handler answers 202 before the run
// finishes), so the request context is detached from cancellation, not
// replaced: values ride along, and the job's own timeout or the session
// DELETE cancel it (I5).
func (s *Server) startJob(ctx context.Context, sess *session, batch core.MutationBatch) (string, int64, int, string) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return "", 0, http.StatusServiceUnavailable, "server is draining"
	}
	s.nextJob++
	id := fmt.Sprintf("j%d", s.nextJob)
	s.mu.Unlock()

	sess.mu.Lock()
	switch sess.state {
	case stateQueued, stateRunning:
		sess.mu.Unlock()
		return "", 0, http.StatusConflict, "a job is already in flight on this session"
	case stateCancelled:
		sess.mu.Unlock()
		return "", 0, http.StatusConflict, "session is cancelled; its result no longer reflects a completed run"
	case stateFailed:
		sess.mu.Unlock()
		return "", 0, http.StatusConflict, "session has failed; delete it and resubmit"
	}
	ctx = context.WithoutCancel(ctx)
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	jb := &job{id: id}
	sess.current = jb
	sess.state = stateQueued
	sess.cancel = cancel
	version := sess.version
	sess.mu.Unlock()

	s.wg.Add(1)
	go s.runJob(sess, jb, batch, ctx, cancel)
	return id, version, 0, ""
}

// runJob executes one discovery job: wait for a concurrency slot, apply
// the batch under the job context, record the outcome. Exactly one
// runJob touches sess.inc at a time — startJob refuses to stack jobs —
// so inc is accessed outside sess.mu.
func (s *Server) runJob(sess *session, jb *job, batch core.MutationBatch, ctx context.Context, cancel context.CancelFunc) {
	defer s.wg.Done()
	defer cancel()

	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		s.finishJob(sess, jb, core.Stats{}, ctx.Err())
		return
	}
	defer func() { <-s.slots }()

	sess.mu.Lock()
	sess.state = stateRunning
	sess.mu.Unlock()

	obs := func(p core.Progress) {
		sess.publish(event{name: "progress", data: p})
		if s.cfg.CycleDelay > 0 {
			time.Sleep(s.cfg.CycleDelay)
		}
	}
	stats, err := sess.inc.ApplyContext(ctx, batch, obs)
	s.finishJob(sess, jb, stats, err)
}

// finishJob records a job's outcome and publishes the done event. A
// committed batch advances the session version and every cached result;
// a cancelled or failed delta batch rolled back inside the Incremental
// (nothing was committed), so the session returns to ready at its
// previous version. Only a cancelled or failed bootstrap — no committed
// result to fall back to, and a cancelled first run poisons the
// Incremental — parks the session in a terminal state.
func (s *Server) finishJob(sess *session, jb *job, stats core.Stats, err error) {
	// runJob owns inc until the state leaves running, so the cover copy
	// is built before taking the lock that readers wait on.
	var fds *fdset.Set
	if err == nil {
		fds = sess.inc.FDs()
	}
	sess.mu.Lock()
	if err == nil {
		sess.state = stateReady
		sess.fds = fds
		sess.stats = stats
		sess.rows = sess.inc.NumRows()
		sess.version = sess.inc.Version()
		sess.appends = sess.inc.Appends
		sess.deletes = sess.inc.Deletes
		sess.updates = sess.inc.Updates
		sess.nextID = sess.inc.NextID()
		jb.code = http.StatusOK
		// The scorer describes the previous version; the next /afds or
		// /quality query builds one over the committed snapshot.
		sess.scorer, sess.snap = nil, nil
	} else {
		jb.err = err.Error()
		jb.code = jobStatus(err)
		if sess.fds != nil && !sess.inc.Poisoned() {
			// Delta rollback: the last committed result still stands and
			// the scorer still describes it.
			sess.state = stateReady
		} else if errors.Is(err, context.Canceled) {
			sess.state = stateCancelled
			sess.scorer, sess.snap = nil, nil
		} else {
			sess.state = stateFailed
			sess.scorer, sess.snap = nil, nil
		}
	}
	sess.cancel = nil
	// The done event joins the history in the critical section that
	// ends the job, so a subscriber that finds the job no longer in
	// flight always finds its done event in the replay.
	sess.publishLocked(event{name: "done", data: doneDoc{Job: jb.id, State: sess.state, Code: jb.code, Error: jb.err, Version: sess.version}})
	sess.mu.Unlock()
}

// jobStatus is the status of a job or compute-bound query that failed
// with err: 499 when cancelled, 504 past its deadline, 500 for a broken
// engine invariant, and 400 for what the input caused.
func jobStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, core.ErrWitnessOvershoot):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// acquireSlot admits a compute-bound query as a job: it answers 503
// while the server drains, joins what Drain waits for, and takes a job
// slot, answering 499 when the client leaves first. On success the
// caller runs the query and then calls release.
func (s *Server) acquireSlot(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return nil, false
	}
	s.wg.Add(1)
	s.mu.Unlock()
	select {
	case s.slots <- struct{}{}:
		return func() {
			<-s.slots
			s.wg.Done()
		}, true
	case <-r.Context().Done():
		writeError(w, StatusClientClosedRequest, r.Context().Err().Error())
		s.wg.Done()
		return nil, false
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	if sess.cancel == nil || (sess.state != stateQueued && sess.state != stateRunning) {
		sess.mu.Unlock()
		writeError(w, http.StatusConflict, "no job in flight to cancel")
		return
	}
	jobID := sess.current.id
	sess.cancel()
	sess.mu.Unlock()
	writeJSON(w, http.StatusAccepted, submitDoc{Session: sess.id, Job: jobID})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	// Deterministic listing: creation order, never map order.
	sort.Slice(all, func(i, j int) bool { return all[i].num < all[j].num })
	docs := make([]sessionDoc, 0, len(all))
	for _, sess := range all {
		docs = append(docs, sess.doc())
	}
	writeJSON(w, http.StatusOK, docs)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, sess.doc())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	if sess.cancel != nil {
		sess.cancel()
	}
	sess.mu.Unlock()
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// minVersionOK enforces the ?min_version= read barrier shared by /fds,
// /afds, and /stats: a client that just committed version N asks for
// min_version=N and gets 412 Precondition Failed (with the current
// version in the body) instead of a silently stale answer if it reached
// a replica — or a rolled-back session — that has not caught up.
func minVersionOK(w http.ResponseWriter, r *http.Request, sess *session) bool {
	v := r.URL.Query().Get("min_version")
	if v == "" {
		return true
	}
	min, err := strconv.ParseInt(v, 10, 64)
	if err != nil || min < 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("min_version must be a non-negative integer, got %q", v))
		return false
	}
	cur, ok := sess.versionAtLeast(min)
	if !ok {
		writeJSON(w, http.StatusPreconditionFailed, errorDoc{
			Error:   fmt.Sprintf("session is at version %d, below requested min_version %d", cur, min),
			Version: cur,
		})
		return false
	}
	return true
}

func (s *Server) handleFDs(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	if r.URL.Query().Get("ensemble") != "" {
		s.handleEnsembleFDs(w, r, sess)
		return
	}
	if !minVersionOK(w, r, sess) {
		return
	}
	fds, attrs, _, version, ready := sess.snapshotResult()
	if !ready {
		writeError(w, http.StatusConflict, "no completed result yet")
		return
	}
	body, err := fdsBody(attrs, version, fds)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// maxEnsembleMembers caps the ?ensemble= member count: each member is a
// full discovery run, so an unbounded N would let one request occupy a
// job slot indefinitely.
const maxEnsembleMembers = 64

// handleEnsembleFDs answers ?ensemble=N[&seed=S]: re-discover the
// session's relation N times under seeded sampling schedules, vote the
// minimal covers per FD, and cross-check every candidate against the
// exact g3 error. Ensemble queries are compute-bound like discovery
// jobs, so they share the job-concurrency semaphore (excess queries
// queue behind running jobs) and count toward Drain. The run honors the
// request context — a client disconnect cancels all members — and each
// completed member publishes an "ensemble" progress event.
func (s *Server) handleEnsembleFDs(w http.ResponseWriter, r *http.Request, sess *session) {
	q := r.URL.Query()
	n, err := strconv.Atoi(q.Get("ensemble"))
	if err != nil || n < 1 || n > maxEnsembleMembers {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("ensemble must be an integer in 1..%d, got %q", maxEnsembleMembers, q.Get("ensemble")))
		return
	}
	var seed uint64
	if v := q.Get("seed"); v != "" {
		seed, err = strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("seed must be an unsigned integer, got %q", v))
			return
		}
	}
	enc, ready := sess.snapshotEncoded()
	if !ready {
		writeError(w, http.StatusConflict, "no completed result yet")
		return
	}
	release, ok := s.acquireSlot(w, r)
	if !ok {
		return
	}
	defer release()

	opt := s.cfg.Euler
	opt.Ensemble = n
	opt.Seed = seed
	obs := func(completed, total int) {
		sess.publish(event{name: "ensemble", data: ensembleProgressDoc{Completed: completed, Total: total}})
	}
	res, err := ensemble.Discover(r.Context(), enc, ensemble.Config{Euler: opt, CrossCheck: true}, obs)
	if err != nil {
		writeError(w, jobStatus(err), err.Error())
		return
	}
	byConf := append([]ensemble.ScoredFD(nil), res.FDs...)
	ensemble.SortByConfidence(byConf)
	sess.mu.Lock()
	attrs := sess.attrs
	sess.mu.Unlock()
	doc := ensembleDoc{
		Attrs:    attrs,
		Members:  res.Members,
		Seed:     res.Seed,
		Count:    len(byConf),
		Majority: res.Stats.MajoritySize,
		Suspects: res.Stats.Suspects,
		FDs:      make([]ensembleFDDoc, 0, len(byConf)),
	}
	for _, f := range byConf {
		lhs := f.FD.LHS.Attrs()
		if lhs == nil {
			lhs = []int{}
		}
		doc.FDs = append(doc.FDs, ensembleFDDoc{
			LHS: lhs, RHS: f.FD.RHS,
			Confidence: f.Confidence, Votes: f.Votes,
			G3: f.G3, Suspect: f.Suspect,
		})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleAFDs answers approximate-FD queries against the last completed
// result: ?eps= (threshold mode, default 0.05) discovers every minimal
// dependency within the error budget, ?k= (top-k mode) ranks the
// session's discovered FDs plus their one-attribute generalizations and
// returns the k best. ?measure= selects the error measure (default g3;
// threshold mode requires an anti-monotone one). The two modes are
// mutually exclusive. Scoring honors the request context, so a client
// disconnect abandons the walk at the next level boundary. The scorer,
// its snapshot and the cover are read together, and the response's
// version is the one they describe.
func (s *Server) handleAFDs(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	measure, err := afd.ParseMeasure(q.Get("measure"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	epsStr, kStr := q.Get("eps"), q.Get("k")
	if epsStr != "" && kStr != "" {
		writeError(w, http.StatusBadRequest, "eps (threshold mode) and k (top-k mode) are mutually exclusive")
		return
	}
	if !minVersionOK(w, r, sess) {
		return
	}
	view, ready := sess.scoring()
	if !ready {
		writeError(w, http.StatusConflict, "no completed result yet")
		return
	}
	doc := afdsDoc{Attrs: view.attrs, Version: view.version, Measure: string(measure), Mode: "threshold"}
	var scored []fdset.ScoredFD
	if kStr != "" {
		k, kerr := strconv.Atoi(kStr)
		if kerr != nil || k < 1 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("k must be a positive integer, got %q", kStr))
			return
		}
		doc.Mode = "topk"
		doc.K = k
		scored, err = view.scorer.Rank(r.Context(), measure, view.cover.Slice(), k)
	} else {
		eps := 0.05
		if epsStr != "" {
			eps, err = strconv.ParseFloat(epsStr, 64)
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("eps must be a number, got %q", epsStr))
				return
			}
		}
		doc.Epsilon = eps
		scored, err = view.scorer.Discover(r.Context(), measure, eps)
	}
	if err != nil {
		writeError(w, jobStatus(err), err.Error())
		return
	}
	if scored == nil {
		scored = []fdset.ScoredFD{}
	}
	doc.Count = len(scored)
	doc.FDs = scored
	writeJSON(w, http.StatusOK, doc)
}

// handleQuality answers GET /v1/sessions/{id}/quality with the full
// data-quality report over the last committed snapshot: the
// redundancy-ranked top-k (?k=, default 5), per-dependency violating
// clusters and repair plans bounded by ?clusters= and ?rows=, and
// normalization advice from the exact cover. Building the report ranks
// the whole cover, so the request is compute-bound like discovery jobs:
// it shares the job-concurrency semaphore, counts toward Drain, and
// honors the request context (a disconnect answers 499 at the next
// pipeline boundary). ?min_version= gives the same read barrier as
// /fds; the report's version field stamps the snapshot it describes.
func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	opt := quality.DefaultOptions()
	for _, knob := range []struct {
		name string
		dst  *int
	}{{"k", &opt.TopK}, {"clusters", &opt.MaxClusters}, {"rows", &opt.MaxRows}} {
		v := q.Get(knob.name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("%s must be an integer, got %q", knob.name, v))
			return
		}
		*knob.dst = n
	}
	if err := opt.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if !minVersionOK(w, r, sess) {
		return
	}
	view, ready := sess.scoring()
	if !ready {
		writeError(w, http.StatusConflict, "no completed result yet")
		return
	}

	release, ok := s.acquireSlot(w, r)
	if !ok {
		return
	}
	defer release()

	rep, err := quality.Analyze(r.Context(), view.enc, view.cover, view.scorer, opt)
	if err != nil {
		writeError(w, jobStatus(err), err.Error())
		return
	}
	rep.Version = view.version
	writeJSON(w, http.StatusOK, (*qualityDoc)(rep))
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	if !minVersionOK(w, r, sess) {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.fds == nil {
		writeError(w, http.StatusConflict, "no completed result yet")
		return
	}
	writeJSON(w, http.StatusOK, statsDoc{
		Rows:    sess.rows,
		Version: sess.version,
		Appends: sess.appends,
		Deletes: sess.deletes,
		Updates: sess.updates,
		NextID:  sess.nextID,
		Stats:   sess.stats,
	})
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	doc := progressDoc{State: sess.state, Events: len(sess.history)}
	for i := len(sess.history) - 1; i >= 0; i-- {
		ev := sess.history[i]
		if p, isProgress := ev.data.(core.Progress); isProgress && doc.Latest == nil {
			snap := p
			doc.Latest = &snap
		}
		if d, isDone := ev.data.(doneDoc); isDone && doc.Done == nil {
			snap := d
			doc.Done = &snap
		}
		if doc.Latest != nil && doc.Done != nil {
			break
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleClosure(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	fds, attrs, ncols, _, ready := sess.snapshotResult()
	if !ready {
		writeError(w, http.StatusConflict, "no completed result yet")
		return
	}
	indices, err := resolveAttrs(r.URL.Query().Get("attrs"), attrs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	x := fdset.NewAttrSet(indices...)
	closure := infer.Closure(fds, x, ncols).Attrs()
	names := make([]string, 0, len(closure))
	for _, a := range closure {
		names = append(names, attrs[a])
	}
	writeJSON(w, http.StatusOK, closureDoc{Attrs: indices, Closure: closure, Names: names})
}

func (s *Server) handleKeys(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	fds, _, ncols, _, ready := sess.snapshotResult()
	if !ready {
		writeError(w, http.StatusConflict, "no completed result yet")
		return
	}
	if ncols > 24 {
		writeError(w, http.StatusUnprocessableEntity,
			fmt.Sprintf("candidate-key enumeration is limited to 24 attributes, schema has %d", ncols))
		return
	}
	keys := infer.CandidateKeys(fds, ncols)
	doc := keysDoc{Keys: make([][]int, 0, len(keys))}
	for _, k := range keys {
		attrs := k.Attrs()
		if attrs == nil {
			attrs = []int{}
		}
		doc.Keys = append(doc.Keys, attrs)
	}
	writeJSON(w, http.StatusOK, doc)
}

// getSession resolves the {id} path value, answering 404 itself.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request) (*session, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no session %q", id))
		return nil, false
	}
	return sess, true
}

// resolveAttrs parses a comma-separated list of attribute names or
// indices against a schema.
func resolveAttrs(list string, attrs []string) ([]int, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("attrs query parameter is required (comma-separated names or indices)")
	}
	var out []int
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		idx := -1
		for i, name := range attrs {
			if name == tok {
				idx = i
				break
			}
		}
		if idx < 0 {
			n, err := strconv.Atoi(tok)
			if err != nil || n < 0 || n >= len(attrs) {
				return nil, fmt.Errorf("unknown attribute %q", tok)
			}
			idx = n
		}
		out = append(out, idx)
	}
	return out, nil
}
