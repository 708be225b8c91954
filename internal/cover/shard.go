package cover

import "eulerfd/internal/fdset"

// rhsShards groups a batch of FDs by RHS for the per-RHS worker shards of
// NCover.AddTrackedBatch and PCover.InvertAllPool. It owns its buffers,
// so once warmed to a batch size it splits further batches without
// allocating. It stores batch positions, not FDs, so the buffer a large
// first batch leaves behind stays small.
type rhsShards struct {
	next   []int // per-RHS write position during the scatter
	order  []int32
	shards [][]int32
}

// split is a stable counting sort of fds by RHS over ncols attributes.
// It returns the positions in fds of each non-empty RHS group, groups in
// ascending RHS and positions in batch order — the order sequential
// per-tree processing sees. The result aliases the buffers and is valid
// until the next split.
func (b *rhsShards) split(fds []fdset.FD, ncols int) [][]int32 {
	if cap(b.next) < ncols+1 {
		b.next = make([]int, ncols+1)
	}
	if cap(b.order) < len(fds) {
		b.order = make([]int32, len(fds))
	}
	next, order := b.next[:ncols+1], b.order[:len(fds)]
	clear(next)
	for _, f := range fds {
		next[f.RHS+1]++
	}
	for rhs := 1; rhs <= ncols; rhs++ {
		next[rhs] += next[rhs-1]
	}
	b.shards = b.shards[:0]
	for rhs := 0; rhs < ncols; rhs++ {
		if lo, hi := next[rhs], next[rhs+1]; lo < hi {
			b.shards = append(b.shards, order[lo:hi:hi])
		}
	}
	for i, f := range fds {
		order[next[f.RHS]] = int32(i)
		next[f.RHS]++
	}
	return b.shards
}
