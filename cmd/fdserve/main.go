// Command fdserve runs the FD discovery HTTP service.
//
// Usage:
//
//	fdserve [flags]
//
//	-addr :8080            listen address
//	-max-sessions 16       concurrent sessions kept in the store
//	-max-jobs 2            discovery jobs running at once
//	-workers 0             per-job worker pool (0 = all cores, 1 = sequential)
//	-timeout 0             per-job deadline (e.g. 30s; 0 = none)
//	-cycle-delay 0         artificial pause per progress event (testing)
//	-pprof                 mount net/http/pprof under /debug/pprof/
//	-smoke                 boot on a random port, run the end-to-end
//	                       self-test against it, and exit
//
// Endpoints (all under /v1):
//
//	GET    /healthz                  liveness
//	GET    /algorithms               registered algorithms
//	POST   /sessions                 submit a CSV, start discovery
//	GET    /sessions                 list sessions
//	GET    /sessions/{id}            session status
//	DELETE /sessions/{id}            remove a session
//	POST   /sessions/{id}/mutations  apply a JSON batch of appends,
//	                                 deletes and updates atomically
//	POST   /sessions/{id}/cancel     cancel the job in flight
//	GET    /sessions/{id}/fds        last completed FD set; ?ensemble=N
//	                                 [&seed=S] votes N seeded re-runs and
//	                                 returns confidence-scored candidates
//	GET    /sessions/{id}/afds       approximate FDs: ?eps= threshold or
//	                                 ?k= top-k, under ?measure=
//	GET    /sessions/{id}/stats      last completed run statistics
//	GET    /sessions/{id}/progress   latest per-cycle snapshot (poll)
//	GET    /sessions/{id}/events     per-cycle snapshots (SSE stream)
//	GET    /sessions/{id}/closure    attribute-set closure query
//	GET    /sessions/{id}/keys       candidate-key enumeration
//	GET    /sessions/{id}/quality    data-quality report (?k= ranked
//	                                 dependencies)
//
// /fds, /afds, /stats and /quality accept ?min_version=V and answer 412
// until version V has committed.
//
// On SIGINT/SIGTERM the server stops accepting requests, drains
// in-flight discovery jobs, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"eulerfd/internal/core"
	"eulerfd/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "listen address")
	maxSessions := fs.Int("max-sessions", 16, "concurrent sessions kept in the store")
	maxJobs := fs.Int("max-jobs", 2, "discovery jobs running at once")
	workers := fs.Int("workers", 0, "per-job worker pool (0 = all cores, 1 = sequential)")
	timeout := fs.Duration("timeout", 0, "per-job deadline (0 = none)")
	cycleDelay := fs.Duration("cycle-delay", 0, "artificial pause per progress event")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	smoke := fs.Bool("smoke", false, "boot on a random port, self-test, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opt := core.DefaultOptions()
	opt.Workers = *workers
	cfg := serve.Config{
		MaxSessions: *maxSessions,
		MaxJobs:     *maxJobs,
		Euler:       opt,
		JobTimeout:  *timeout,
		CycleDelay:  *cycleDelay,
		Pprof:       *pprofOn,
	}

	if *smoke {
		if err := runSmoke(cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "fdserve: smoke:", err)
			return 1
		}
		fmt.Fprintln(stdout, "fdserve: smoke test passed")
		return 0
	}

	handler := serve.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "fdserve:", err)
		return 1
	}
	httpSrv := &http.Server{Handler: handler}
	fmt.Fprintf(stdout, "fdserve: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "fdserve:", err)
			return 1
		}
		return 0
	case <-ctx.Done():
	}

	fmt.Fprintln(stdout, "fdserve: shutting down, draining jobs")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "fdserve: shutdown:", err)
	}
	if err := handler.Drain(shutdownCtx); err != nil {
		fmt.Fprintln(stderr, "fdserve: drain:", err)
		return 1
	}
	fmt.Fprintln(stdout, "fdserve: drained")
	return 0
}
