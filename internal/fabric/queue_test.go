package fabric

import "testing"

func TestFIFOQueueDropTail(t *testing.T) {
	q := NewFIFOQueue(3000)
	for i := 0; i < 4; i++ {
		p := NewData(1, 0, 1, int64(i), 1000)
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
}

func TestFIFOQueueUnbounded(t *testing.T) {
	q := NewFIFOQueue(0)
	for i := 0; i < 1000; i++ {
		q.Enqueue(NewData(1, 0, 1, int64(i), 9000))
	}
	if q.Stats().Drops != 0 {
		t.Errorf("unbounded queue dropped %d", q.Stats().Drops)
	}
	if q.Packets() != 1000 {
		t.Errorf("queued %d, want 1000", q.Packets())
	}
}

func TestECNQueueMarksAboveThreshold(t *testing.T) {
	// Threshold 2 packets worth of bytes: third and later arrivals marked.
	q := NewECNQueue(100*1500, 2*1500)
	var marked int
	for i := 0; i < 5; i++ {
		q.Enqueue(NewData(1, 0, 1, int64(i), 1500))
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
}

func TestCtrlPrioQueueOrdering(t *testing.T) {
	q := NewCtrlPrioQueue()
	d1 := NewData(1, 0, 1, 0, 9000)
	d2 := NewData(1, 0, 1, 1, 9000)
	a := NewControl(Ack, 1, 1, 0)
	q.Enqueue(d1)
	q.Enqueue(d2)
	q.Enqueue(a)
	if p := q.Dequeue(); p.Type != Ack {
		t.Fatalf("first dequeue = %v, want control packet", p.Type)
	}
	if p := q.Dequeue(); p.Seq != 0 {
		t.Fatalf("data order broken")
	}
	if p := q.Dequeue(); p.Seq != 1 {
		t.Fatalf("data order broken")
	}
	if !q.Empty() {
		t.Error("should be empty")
	}
}

func TestCtrlPrioTrimmedIsControl(t *testing.T) {
	q := NewCtrlPrioQueue()
	d := NewData(1, 0, 1, 0, 9000)
	h := NewData(1, 0, 1, 1, 9000)
	h.Trim()
	q.Enqueue(d)
	q.Enqueue(h)
	if p := q.Dequeue(); !p.Trimmed() {
		t.Fatal("trimmed header should dequeue before full data packet")
	}
}

func TestPacketTrimAndBounce(t *testing.T) {
	p := NewData(7, 3, 9, 5, 9000)
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
	p.Path = []int16{1, 2, 3}
	p.Hop = 2
	p.Bounce()
	if p.Src != 9 || p.Dst != 3 {
		t.Errorf("bounce should swap src/dst: %d->%d", p.Src, p.Dst)
	}
	if p.Path != nil || p.Hop != 0 {
		t.Error("bounce should clear the source route")
	}
	Free(p)
}

func TestPacketPoolReuseIsZeroed(t *testing.T) {
	p := GetPacket()
	p.Flow = 99
	p.Flags = FlagSYN | FlagCE
	p.Seq = 123
	Free(p)
	q := GetPacket()
	if q.Flow != 0 || q.Flags != 0 || q.Seq != 0 {
		t.Errorf("pooled packet not zeroed: %+v", q)
	}
	Free(q)
}

func TestQueueStatsHighWatermark(t *testing.T) {
	q := NewFIFOQueue(0)
	for i := 0; i < 4; i++ {
		q.Enqueue(NewData(1, 0, 1, 0, 1500))
	}
	Free(q.Dequeue())
	Free(q.Dequeue())
	q.Enqueue(NewData(1, 0, 1, 0, 1500))
	if q.Stats().MaxBytes != 6000 {
		t.Errorf("MaxBytes = %d, want 6000", q.Stats().MaxBytes)
	}
}
