package core

// deque is a ring-buffer FIFO queue of cluster states, backing one MLFQ
// priority level. A slice-based queue leaks popped heads (queues[k][1:]
// keeps the backing array's prefix reachable); the ring makes push and
// pop O(1) amortized with no retained references.
type deque struct {
	buf  []*clusterState
	head int // index of the front element when n > 0
	n    int
}

// grow doubles the ring, linearizing the live window to the front.
func (d *deque) grow() {
	nb := make([]*clusterState, max(4, 2*len(d.buf)))
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf, d.head = nb, 0
}

// pushBack appends at the tail.
func (d *deque) pushBack(c *clusterState) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)%len(d.buf)] = c
	d.n++
}

// popFront removes and returns the head, clearing the slot so the popped
// cluster is not kept alive by the ring.
func (d *deque) popFront() (*clusterState, bool) {
	if d.n == 0 {
		return nil, false
	}
	c := d.buf[d.head]
	d.buf[d.head] = nil
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	return c, true
}

// len returns the number of enqueued clusters.
func (d *deque) len() int { return d.n }
