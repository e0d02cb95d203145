package fabric

import "testing"

func TestFIFOQueueDropTail(t *testing.T) {
	a := NewArena()
	q := NewFIFOQueue(3000)
	for i := 0; i < 4; i++ {
		p := a.NewData(1, 0, 1, int64(i), 1000)
		q.Enqueue(p)
	}
	if q.Packets() != 3 {
		t.Fatalf("queued %d packets, want 3 (drop-tail at 3000B)", q.Packets())
	}
	if q.Stats().Drops != 1 {
		t.Errorf("drops = %d, want 1", q.Stats().Drops)
	}
	if q.Bytes() != 3000 {
		t.Errorf("bytes = %d, want 3000", q.Bytes())
	}
	for want := int64(0); want < 3; want++ {
		p := q.Dequeue()
		if p.Seq != want {
			t.Fatalf("dequeue order broken: got %d want %d", p.Seq, want)
		}
		Free(p)
	}
	if !q.Empty() {
		t.Error("queue should be empty")
	}
	noLeak(t, a, q)
}

func TestFIFOQueueUnbounded(t *testing.T) {
	a := NewArena()
	q := NewFIFOQueue(0)
	for i := 0; i < 1000; i++ {
		q.Enqueue(a.NewData(1, 0, 1, int64(i), 9000))
	}
	if q.Stats().Drops != 0 {
		t.Errorf("unbounded queue dropped %d", q.Stats().Drops)
	}
	if q.Packets() != 1000 {
		t.Errorf("queued %d, want 1000", q.Packets())
	}
	noLeak(t, a, q)
}

func TestECNQueueMarksAboveThreshold(t *testing.T) {
	// Threshold 2 packets worth of bytes: third and later arrivals marked.
	a := NewArena()
	q := NewECNQueue(100*1500, 2*1500)
	var marked int
	for i := 0; i < 5; i++ {
		q.Enqueue(a.NewData(1, 0, 1, int64(i), 1500))
	}
	for !q.Empty() {
		p := q.Dequeue()
		if p.Flags&FlagCE != 0 {
			marked++
		}
		Free(p)
	}
	if marked != 3 {
		t.Errorf("marked %d packets, want 3 (arrivals seeing >=2 queued)", marked)
	}
	if q.Stats().Marks != 3 {
		t.Errorf("Marks stat = %d, want 3", q.Stats().Marks)
	}
	noLeak(t, a, q)
}

func TestCtrlPrioQueueOrdering(t *testing.T) {
	a := NewArena()
	q := NewCtrlPrioQueue()
	d1 := a.NewData(1, 0, 1, 0, 9000)
	d2 := a.NewData(1, 0, 1, 1, 9000)
	ack := a.NewControl(Ack, 1, 1, 0)
	q.Enqueue(d1)
	q.Enqueue(d2)
	q.Enqueue(ack)
	if p := q.Dequeue(); p != ack {
		t.Fatalf("first dequeue = %v, want control packet", p.Type)
	}
	if p := q.Dequeue(); p != d1 {
		t.Fatalf("data order broken")
	}
	if p := q.Dequeue(); p != d2 {
		t.Fatalf("data order broken")
	}
	Free(ack)
	Free(d1)
	Free(d2)
	if !q.Empty() {
		t.Error("should be empty")
	}
	noLeak(t, a, q)
}

func TestCtrlPrioTrimmedIsControl(t *testing.T) {
	a := NewArena()
	q := NewCtrlPrioQueue()
	d := a.NewData(1, 0, 1, 0, 9000)
	h := a.NewData(1, 0, 1, 1, 9000)
	h.Trim()
	q.Enqueue(d)
	q.Enqueue(h)
	p := q.Dequeue()
	if !p.Trimmed() {
		t.Fatal("trimmed header should dequeue before full data packet")
	}
	Free(p)
	noLeak(t, a, q)
}

func TestPacketTrimAndBounce(t *testing.T) {
	a := NewArena()
	p := a.NewData(7, 3, 9, 5, 9000)
	if p.IsControl() {
		t.Error("full data packet should not be control")
	}
	p.Trim()
	if p.Size != HeaderSize || !p.Trimmed() || !p.IsControl() {
		t.Errorf("after Trim: size=%d trimmed=%v", p.Size, p.Trimmed())
	}
	if p.DataSize != 9000 {
		t.Errorf("DataSize must survive trimming, got %d", p.DataSize)
	}
	p.Route, p.Hop, p.PathID = 5, 2, 5
	p.Bounce()
	if p.Src != 9 || p.Dst != 3 {
		t.Errorf("bounce should swap src/dst: %d->%d", p.Src, p.Dst)
	}
	if p.Route != -1 || p.Hop != 0 {
		t.Error("bounce should clear the source route")
	}
	if p.PathID != 5 {
		t.Error("bounce should keep the path id the sender charges it to")
	}
	Free(p)
	noLeak(t, a)
}

// TestPacketPoolReuseIsZeroed: a recycled packet comes back from Get with
// nothing of its previous life in it.
func TestPacketPoolReuseIsZeroed(t *testing.T) {
	a := NewArena()
	p := a.Get()
	p.Flow = 99
	p.Flags = FlagSYN | FlagCE
	p.Seq = 123
	Free(p)
	q := a.Get()
	if q != p {
		t.Fatal("the arena did not hand the freed packet out again")
	}
	if q.Flow != 0 || q.Flags != 0 || q.Seq != 0 {
		t.Errorf("pooled packet not zeroed: %+v", q)
	}
	Free(q)
	noLeak(t, a)
}

func TestQueueStatsHighWatermark(t *testing.T) {
	a := NewArena()
	q := NewFIFOQueue(0)
	for i := 0; i < 4; i++ {
		q.Enqueue(a.NewData(1, 0, 1, 0, 1500))
	}
	Free(q.Dequeue())
	Free(q.Dequeue())
	q.Enqueue(a.NewData(1, 0, 1, 0, 1500))
	if q.Stats().MaxBytes != 6000 {
		t.Errorf("MaxBytes = %d, want 6000", q.Stats().MaxBytes)
	}
	noLeak(t, a, q)
}
