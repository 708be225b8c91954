// Package a exercises the poolrace analyzer: pool.Do callbacks may write
// per-index slots and mutex-guarded state; writes to captured variables,
// captured maps, and shared slots are flagged.
package a

import (
	"sync"

	"eulerfd/internal/pool"
)

// perIndex is the sanctioned per-chunk discipline.
func perIndex(p *pool.Pool, n int) []int {
	results := make([]int, n)
	p.Do(n, func(i int) {
		results[i] = i * i
	})
	return results
}

// capturedScalar races: every worker accumulates into one variable.
func capturedScalar(p *pool.Pool, n int) int {
	total := 0
	p.Do(n, func(i int) {
		total += i // want `captured from the enclosing scope`
	})
	return total
}

// guarded serializes the shared write with a mutex.
func guarded(p *pool.Pool, n int) int {
	var mu sync.Mutex
	total := 0
	p.Do(n, func(i int) {
		mu.Lock()
		total += i
		mu.Unlock()
	})
	return total
}

// capturedMap faults: concurrent map writes are never safe, distinct
// keys or not.
func capturedMap(p *pool.Pool, n int) map[int]int {
	m := make(map[int]int)
	p.Do(n, func(i int) {
		m[i] = i // want `captured map`
	})
	return m
}

// fixedIndex collides: every callback writes slot 0.
func fixedIndex(p *pool.Pool, n int) []int {
	results := make([]int, 1)
	p.Do(n, func(i int) {
		results[0] += i // want `not derived from the callback`
	})
	return results
}

type chunk struct {
	sum  int
	vals []int
}

// perChunk owns chunk i through a pointer derived from the callback
// index, the delta scan's scratch-buffer pattern.
func perChunk(p *pool.Pool, chunks []chunk) {
	p.Do(len(chunks), func(i int) {
		c := &chunks[i]
		c.sum++
		c.vals = append(c.vals, i)
	})
}

// perChunkField writes the slot field directly through the index.
func perChunkField(p *pool.Pool, chunks []chunk) {
	p.Do(len(chunks), func(i int) {
		chunks[i].sum = i
	})
}

// indirect binds the callback to a variable before handing it to Do;
// the closure is resolved through the assignment and checked the same.
func indirect(p *pool.Pool, n int) int {
	total := 0
	cb := func(i int) {
		total += i // want `captured from the enclosing scope`
	}
	p.Do(n, cb)
	return total
}

type worker struct {
	cb func(int)
}

// fieldBound stores the callback in a struct field first: resolved
// through the composite literal's key.
func fieldBound(p *pool.Pool, n int) int {
	total := 0
	w := worker{cb: func(i int) {
		total += i // want `captured from the enclosing scope`
	}}
	p.Do(n, w.cb)
	return total
}

// fieldStored assigns the callback through a selector after the fact.
func fieldStored(p *pool.Pool, m map[int]int) {
	var w worker
	w.cb = func(i int) {
		m[i] = i // want `captured map`
	}
	p.Do(len(m), w.cb)
}

// indirectPerIndex keeps the per-index discipline through the
// indirection: sanctioned.
func indirectPerIndex(p *pool.Pool, n int) []int {
	results := make([]int, n)
	cb := func(i int) { results[i] = i }
	p.Do(n, cb)
	return results
}

// unbound is assigned a racy closure but never reaches a pool: the
// write is the enclosing function's own business.
func unbound(n int) int {
	total := 0
	cb := func(i int) { total += i }
	cb(n)
	return total
}
