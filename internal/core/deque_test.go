package core

import (
	"container/list"
	"math/rand"
	"testing"
)

// TestDequeAgainstList drives the ring deque and a container/list oracle
// with the same random operation stream.
func TestDequeAgainstList(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var d deque
	oracle := list.New()
	states := make([]*clusterState, 50)
	for i := range states {
		states[i] = &clusterState{}
	}
	for op := 0; op < 5000; op++ {
		switch r.Intn(2) {
		case 0:
			c := states[r.Intn(len(states))]
			d.pushBack(c)
			oracle.PushBack(c)
		case 1:
			got, ok := d.popFront()
			if oracle.Len() == 0 {
				if ok {
					t.Fatalf("op %d: popFront returned %v from empty deque", op, got)
				}
				continue
			}
			want := oracle.Remove(oracle.Front()).(*clusterState)
			if !ok || got != want {
				t.Fatalf("op %d: popFront = %v ok=%v, want %v", op, got, ok, want)
			}
		}
		if d.len() != oracle.Len() {
			t.Fatalf("op %d: len = %d, want %d", op, d.len(), oracle.Len())
		}
	}
}

func TestDequeReleasesPoppedSlots(t *testing.T) {
	var d deque
	c := &clusterState{}
	d.pushBack(c)
	d.popFront()
	for _, slot := range d.buf {
		if slot != nil {
			t.Fatal("popped slot still references the cluster")
		}
	}
}
