// Package pool provides the persistent worker pool shared by EulerFD's
// parallel stages: negative-cover admission and positive-cover inversion
// sharded by RHS, and, for incremental maintenance, the delta scan's
// chunks and the positive-cover patching after retirements. Sampling is
// sequential and never uses it. One pool is created per discovery run or
// mutation batch, so goroutine churn is paid once, not per stage.
//
// The nil *Pool is a valid pool that runs everything inline on the calling
// goroutine; callers never need to branch on the worker count themselves.
package pool

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// PanicError is the value Do re-panics with on the coordinator goroutine
// when one or more callbacks panic. It implements error so a recover at
// the discovery boundary can surface the failure as an ordinary error.
// When several callbacks panic in one Do, the one with the smallest index
// wins, so the reported failure does not depend on goroutine scheduling.
type PanicError struct {
	Index int    // index of the panicking callback
	Value any    // the original panic value
	Stack []byte // stack trace captured at the panic site
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: callback %d panicked: %v", e.Index, e.Value)
}

// Unwrap exposes the original panic value when it was itself an error.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Pool is a fixed set of persistent worker goroutines fed from a shared
// task channel. It is safe for concurrent use by one coordinator at a
// time: Do must not be called from inside a task (tasks submitting tasks
// can starve the pool).
type Pool struct {
	jobs chan func()
	once sync.Once
}

// New starts a pool of n worker goroutines. n ≤ 1 returns nil — the nil
// pool is fully functional and sequential, so a single code path serves
// both the parallel and the Workers=1 configuration.
func New(n int) *Pool {
	if n <= 1 {
		return nil
	}
	p := &Pool{jobs: make(chan func())}
	for i := 0; i < n; i++ {
		go p.loop()
	}
	return p
}

func (p *Pool) loop() {
	for f := range p.jobs {
		f()
	}
}

// Do runs fn(0), fn(1), …, fn(n-1) and returns when all calls have
// finished. On the nil pool the calls run inline in index order; otherwise
// they run concurrently on the workers (the coordinator executes fn(0)
// itself rather than sitting idle). fn must confine its writes to
// per-index state — Do imposes no ordering between concurrent calls.
//
// A panic inside a callback is caught on the worker, so the pool never
// deadlocks and the workers stay alive; after every callback has
// finished, Do re-panics on the coordinator goroutine with a *PanicError
// for the smallest panicking index. The sequential path recovers and
// rethrows identically, so Workers=1 and Workers=N fail the same way.
func (p *Pool) Do(n int, fn func(i int)) {
	if p == nil || n <= 1 {
		for i := 0; i < n; i++ {
			if pe := safeCall(i, fn); pe != nil {
				panic(pe)
			}
		}
		return
	}
	// Each callback owns slot i — the same per-index discipline Do asks
	// of its callers — so collecting panics needs no lock.
	panics := make([]*PanicError, n)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		p.jobs <- func() {
			defer wg.Done()
			panics[i] = safeCall(i, fn)
		}
	}
	panics[0] = safeCall(0, fn)
	wg.Wait()
	for _, pe := range panics {
		if pe != nil {
			panic(pe)
		}
	}
}

// safeCall runs fn(i), converting a panic into a *PanicError. A callback
// that deliberately panics with a *PanicError (rethrowing) is passed
// through unwrapped.
func safeCall(i int, fn func(i int)) (pe *PanicError) {
	defer func() {
		if v := recover(); v != nil {
			if wrapped, ok := v.(*PanicError); ok {
				pe = wrapped
				return
			}
			pe = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	fn(i)
	return nil
}

// Close shuts the workers down. The pool must not be used afterwards.
// Close on the nil pool is a no-op; calling it twice is safe.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.jobs) })
}
