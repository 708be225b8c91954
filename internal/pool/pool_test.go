package pool

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	order := []int{}
	p.Do(4, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("nil pool order = %v, want 0..3 in order", order)
		}
	}
	p.Close() // must not panic
}

func TestNewSmallReturnsNil(t *testing.T) {
	if New(0) != nil || New(1) != nil || New(-3) != nil {
		t.Error("New(n≤1) must return the nil (sequential) pool")
	}
}

func TestDoCoversAllIndices(t *testing.T) {
	p := New(4)
	defer p.Close()
	const n = 100
	var hits [n]atomic.Int32
	p.Do(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d executed %d times, want 1", i, got)
		}
	}
}

func TestDoWithFewerTasksThanWorkers(t *testing.T) {
	p := New(8)
	defer p.Close()
	var sum atomic.Int64
	p.Do(3, func(i int) { sum.Add(int64(i + 1)) })
	if sum.Load() != 6 {
		t.Errorf("sum = %d, want 6", sum.Load())
	}
}

func TestDoReusableAcrossCalls(t *testing.T) {
	p := New(2)
	defer p.Close()
	for round := 0; round < 50; round++ {
		var count atomic.Int32
		p.Do(7, func(int) { count.Add(1) })
		if count.Load() != 7 {
			t.Fatalf("round %d: %d tasks ran, want 7", round, count.Load())
		}
	}
}

func TestCloseTwice(t *testing.T) {
	p := New(2)
	p.Close()
	p.Close() // must not panic
}

// mustPanic runs f and returns the recovered *PanicError, failing the
// test if f completes or panics with anything else.
func mustPanic(t *testing.T, f func()) (pe *PanicError) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected a panic, got none")
		}
		var ok bool
		if pe, ok = v.(*PanicError); !ok {
			t.Fatalf("panic value is %T, want *PanicError", v)
		}
	}()
	f()
	return nil
}

func TestPanicSurfacesNotDeadlocks(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		pe := mustPanic(t, func() {
			p.Do(8, func(i int) {
				if i == 5 {
					panic("boom")
				}
			})
		})
		if pe.Index != 5 {
			t.Errorf("workers=%d: Index = %d, want 5", workers, pe.Index)
		}
		if pe.Value != "boom" {
			t.Errorf("workers=%d: Value = %v, want boom", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		p.Close()
	}
}

func TestPanicDeterministicSmallestIndex(t *testing.T) {
	// Several callbacks panic; the reported index must not depend on
	// which worker loses the race.
	for _, workers := range []int{1, 4} {
		p := New(workers)
		for round := 0; round < 20; round++ {
			pe := mustPanic(t, func() {
				p.Do(16, func(i int) {
					if i%3 == 2 { // panics at 2, 5, 8, 11, 14
						panic(i)
					}
				})
			})
			if pe.Index != 2 {
				t.Fatalf("workers=%d round %d: Index = %d, want 2", workers, round, pe.Index)
			}
		}
		p.Close()
	}
}

func TestPoolUsableAfterPanic(t *testing.T) {
	p := New(4)
	defer p.Close()
	mustPanic(t, func() {
		p.Do(8, func(i int) { panic("first") })
	})
	// The workers must have survived the recovered panics.
	var count atomic.Int32
	p.Do(8, func(int) { count.Add(1) })
	if count.Load() != 8 {
		t.Fatalf("after panic: %d tasks ran, want 8", count.Load())
	}
}

func TestPanicErrorUnwrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	pe := mustPanic(t, func() {
		var p *Pool
		p.Do(1, func(int) { panic(sentinel) })
	})
	if !errors.Is(pe, sentinel) {
		t.Errorf("errors.Is(pe, sentinel) = false, want true")
	}
	var asPE *PanicError
	if !errors.As(error(pe), &asPE) {
		t.Error("errors.As failed to recover *PanicError")
	}
}
