package cp

import (
	"testing"

	"ndp/internal/fabric"
)

// noLeak frees what q still holds and fails the test when a packet taken
// from a has not come back.
func noLeak(t *testing.T, a *fabric.Arena, q *Queue) {
	t.Helper()
	for !q.Empty() {
		fabric.Free(q.Dequeue())
	}
	if n := a.InUse(); n != 0 {
		t.Errorf("%d packets leaked", n)
	}
}

func TestCPQueueTrimsIntoSameFIFO(t *testing.T) {
	a := fabric.NewArena()
	q := NewQueue(3*9000, 3*9000+64*fabric.HeaderSize)
	for i := int64(0); i < 5; i++ {
		q.Enqueue(a.NewData(1, 0, 1, i, 9000))
	}
	if q.Stats().Trims != 2 {
		t.Fatalf("trims = %d, want 2", q.Stats().Trims)
	}
	// FIFO order: 3 full packets then 2 headers — headers wait their turn.
	var order []bool
	for !q.Empty() {
		p := q.Dequeue()
		order = append(order, p.Trimmed())
		fabric.Free(p)
	}
	want := []bool{false, false, false, true, true}
	if len(order) != len(want) {
		t.Fatalf("dequeued %d packets, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Errorf("position %d trimmed=%v, want %v (CP is strict FIFO)", i, order[i], want[i])
		}
	}
	noLeak(t, a, q)
}

func TestCPQueueHeaderCollapse(t *testing.T) {
	a := fabric.NewArena()
	// Sustained overload: the FIFO fills with headers. Offered 1000 packets
	// into a 3-packet queue drained slowly: most become headers, and the
	// data fraction of the queue is tiny — the collapse precursor.
	q := NewQueue(3*9000, 3*9000+64*fabric.HeaderSize)
	for i := int64(0); i < 1000; i++ {
		q.Enqueue(a.NewData(1, 0, 1, i, 9000))
		if i%9 == 8 { // drain one packet per 9 arrivals
			fabric.Free(q.Dequeue())
		}
	}
	if q.Stats().Trims < 800 {
		t.Errorf("trims = %d; sustained overload should trim most packets", q.Stats().Trims)
	}
	noLeak(t, a, q)
}

func TestCPQueueDropsWhenHeaderDoesNotFit(t *testing.T) {
	a := fabric.NewArena()
	q := NewQueue(64, 2*fabric.HeaderSize) // room for two headers only
	q.Enqueue(a.NewData(1, 0, 1, 0, 9000))
	q.Enqueue(a.NewData(1, 0, 1, 1, 9000))
	q.Enqueue(a.NewData(1, 0, 1, 2, 9000))
	if q.Stats().Trims != 3 {
		t.Errorf("trims = %d, want 3", q.Stats().Trims)
	}
	if q.Stats().Drops != 1 {
		t.Errorf("drops = %d, want 1 (third header does not fit)", q.Stats().Drops)
	}
	noLeak(t, a, q)
}

func TestCPControlPacketsShareFIFO(t *testing.T) {
	a := fabric.NewArena()
	q := NewQueue(2*9000, 2*9000+4096)
	q.Enqueue(a.NewData(1, 0, 1, 0, 9000))
	q.Enqueue(a.NewControl(fabric.Ack, 1, 1, 0))
	// No priority: data dequeues first because it arrived first.
	p := q.Dequeue()
	if p.Type != fabric.Data {
		t.Error("CP has no priority queue; FIFO order must hold")
	}
	fabric.Free(p)
	noLeak(t, a, q)
}
