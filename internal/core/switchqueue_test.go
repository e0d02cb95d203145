package core

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// testQueue returns a switch queue and the arena its test takes packets
// from; when the test ends, what the queue still holds is freed and the
// arena must be back at zero.
func testQueue(t *testing.T, cfg SwitchConfig) (*SwitchQueue, *fabric.Arena) {
	q, a := NewSwitchQueue(cfg, sim.NewRand(1)), fabric.NewArena()
	t.Cleanup(func() {
		if !drained(q, a) {
			t.Errorf("%d packets leaked", a.InUse())
		}
	})
	return q, a
}

// drained frees what q still holds and reports whether every packet taken
// from a has come back.
func drained(q *SwitchQueue, a *fabric.Arena) bool {
	for !q.Empty() {
		fabric.Free(q.Dequeue())
	}
	return a.InUse() == 0
}

func data(a *fabric.Arena, seq int64) *fabric.Packet { return a.NewData(1, 0, 1, seq, 9000) }

func TestSwitchQueueTrimsWhenFull(t *testing.T) {
	q, a := testQueue(t, DefaultSwitchConfig(9000))
	for i := int64(0); i < 12; i++ {
		q.Enqueue(data(a, i))
	}
	if q.DataPackets() != 8 {
		t.Fatalf("data queue depth = %d, want 8", q.DataPackets())
	}
	if q.HeaderPackets() != 4 {
		t.Fatalf("header queue depth = %d, want 4 trimmed", q.HeaderPackets())
	}
	if q.Stats().Trims != 4 {
		t.Errorf("trims = %d, want 4", q.Stats().Trims)
	}
	// Headers are served with priority.
	p := q.Dequeue()
	if !p.Trimmed() || p.Size != fabric.HeaderSize {
		t.Errorf("first dequeue should be a trimmed header, got %v", p)
	}
	if p.DataSize != 9000 {
		t.Errorf("trimmed header must keep DataSize, got %d", p.DataSize)
	}
	fabric.Free(p)
}

func TestSwitchQueueTrimCoinPicksTailSometimes(t *testing.T) {
	// With the coin enabled, across many overflows both the arriving packet
	// and the queue tail must get trimmed sometimes.
	q, a := testQueue(t, DefaultSwitchConfig(9000))
	arrivingTrimmed, tailTrimmed := 0, 0
	for i := int64(0); i < 8; i++ {
		q.Enqueue(data(a, i))
	}
	for i := int64(100); i < 300; i++ {
		q.Enqueue(data(a, i))
		// Inspect the header queue's newest entry: if it carries the
		// arriving seq, the arrival was trimmed; otherwise the tail was.
		h := q.hdr.PopTail()
		if h.Seq == i {
			arrivingTrimmed++
		} else {
			tailTrimmed++
		}
		fabric.Free(h)
	}
	if arrivingTrimmed == 0 || tailTrimmed == 0 {
		t.Errorf("coin never flipped: arriving=%d tail=%d", arrivingTrimmed, tailTrimmed)
	}
	// Roughly balanced.
	if arrivingTrimmed < 60 || tailTrimmed < 60 {
		t.Errorf("coin biased: arriving=%d tail=%d (want ~100 each)", arrivingTrimmed, tailTrimmed)
	}
}

func TestSwitchQueueTrimArrivingOnlyAblation(t *testing.T) {
	cfg := DefaultSwitchConfig(9000)
	cfg.TrimArrivingOnly = true
	q, a := testQueue(t, cfg)
	for i := int64(0); i < 8; i++ {
		q.Enqueue(data(a, i))
	}
	for i := int64(100); i < 120; i++ {
		q.Enqueue(data(a, i))
		h := q.hdr.PopTail()
		if h.Seq != i {
			t.Fatalf("TrimArrivingOnly trimmed the tail (seq %d)", h.Seq)
		}
		fabric.Free(h)
	}
}

func TestSwitchQueueWRRPreventsDataStarvation(t *testing.T) {
	cfg := DefaultSwitchConfig(9000)
	q, a := testQueue(t, cfg)
	// Fill data queue, then flood control packets.
	for i := int64(0); i < 8; i++ {
		q.Enqueue(data(a, i))
	}
	for i := 0; i < 100; i++ {
		q.Enqueue(a.NewControl(fabric.Ack, 2, 1, 0))
	}
	// Serve 33 packets: with 10:1 WRR we must see 3 data packets.
	dataServed := 0
	for i := 0; i < 33; i++ {
		p := q.Dequeue()
		if p.Type == fabric.Data && !p.Trimmed() {
			dataServed++
		}
		fabric.Free(p)
	}
	if dataServed != 3 {
		t.Errorf("served %d data packets in 33, want 3 (10:1 WRR)", dataServed)
	}
}

func TestSwitchQueueStrictPriorityAblation(t *testing.T) {
	cfg := DefaultSwitchConfig(9000)
	cfg.HeaderWRR = 0 // strict priority: headers can starve data
	q, a := testQueue(t, cfg)
	q.Enqueue(data(a, 0))
	for i := 0; i < 50; i++ {
		q.Enqueue(a.NewControl(fabric.Ack, 2, 1, 0))
	}
	for i := 0; i < 50; i++ {
		p := q.Dequeue()
		if p.Type == fabric.Data {
			t.Fatalf("strict priority served data at position %d", i)
		}
		fabric.Free(p)
	}
}

func TestSwitchQueueBounceOnHeaderOverflow(t *testing.T) {
	cfg := DefaultSwitchConfig(9000)
	cfg.HeaderCapBytes = 2 * fabric.HeaderSize // room for only two headers
	q, a := testQueue(t, cfg)
	var bounced []*fabric.Packet
	q.BounceSink = fabric.SinkFunc(func(p *fabric.Packet) { bounced = append(bounced, p) })
	for i := int64(0); i < 8; i++ {
		q.Enqueue(data(a, i))
	}
	for i := int64(100); i < 105; i++ {
		q.Enqueue(data(a, i)) // all trimmed; only 2 headers fit
	}
	if len(bounced) != 3 {
		t.Fatalf("bounced %d, want 3", len(bounced))
	}
	for _, p := range bounced {
		if p.Flags&fabric.FlagBounced == 0 || p.Src != 1 || p.Dst != 0 {
			t.Errorf("bounced packet not return-to-sender: %v", p)
		}
		fabric.Free(p)
	}
	if q.Stats().Bounces != 3 {
		t.Errorf("Bounces stat = %d, want 3", q.Stats().Bounces)
	}
}

func TestSwitchQueueDropsTwiceBounced(t *testing.T) {
	cfg := DefaultSwitchConfig(9000)
	cfg.HeaderCapBytes = fabric.HeaderSize
	q, a := testQueue(t, cfg)
	q.BounceSink = fabric.SinkFunc(func(p *fabric.Packet) { t.Fatal("re-bounced an already-bounced header") })
	q.Enqueue(a.NewControl(fabric.Ack, 9, 0, 1)) // fills the header queue
	p := data(a, 0)
	p.Trim()
	p.Bounce() // already on its way back
	q.Enqueue(p)
	if q.Stats().Drops != 1 {
		t.Errorf("drops = %d, want 1", q.Stats().Drops)
	}
}

func TestSwitchQueueDisableBounceAblation(t *testing.T) {
	cfg := DefaultSwitchConfig(9000)
	cfg.HeaderCapBytes = fabric.HeaderSize
	cfg.DisableBounce = true
	q, a := testQueue(t, cfg)
	q.BounceSink = fabric.SinkFunc(func(p *fabric.Packet) { t.Fatal("bounce disabled but BounceSink called") })
	q.Enqueue(a.NewControl(fabric.Ack, 9, 0, 1))
	p := data(a, 0)
	p.Trim()
	q.Enqueue(p)
	if q.Stats().Drops != 1 {
		t.Errorf("drops = %d, want 1", q.Stats().Drops)
	}
}

func TestSwitchQueueBytesAccounting(t *testing.T) {
	q, a := testQueue(t, DefaultSwitchConfig(9000))
	q.Enqueue(data(a, 0))
	q.Enqueue(a.NewControl(fabric.Nack, 1, 1, 0))
	if q.Bytes() != 9000+fabric.HeaderSize {
		t.Errorf("Bytes = %d", q.Bytes())
	}
	fabric.Free(q.Dequeue())
	fabric.Free(q.Dequeue())
	if q.Bytes() != 0 || !q.Empty() {
		t.Errorf("after draining: bytes=%d empty=%v", q.Bytes(), q.Empty())
	}
}

// TestSwitchQueueDataRingSizedFromCap: the data ring is sized from the
// capacity that bounds it (8 slots for the paper's 8 packets, not 64) and a
// queue driven far past full never outgrows it; a deep queue starts at the
// floor.
func TestSwitchQueueDataRingSizedFromCap(t *testing.T) {
	for _, tc := range []struct{ capPackets, want int }{{8, 8}, {6, 8}, {1, 1}, {64, 64}, {1000, 64}} {
		cfg := DefaultSwitchConfig(9000)
		cfg.DataCapPackets = tc.capPackets
		q, a := testQueue(t, cfg)
		q.Enqueue(data(a, 0))
		if got := q.data.Cap(); got != tc.want {
			t.Errorf("DataCapPackets %d: first data ring has %d slots, want %d", tc.capPackets, got, tc.want)
		}
	}
	q, a := testQueue(t, DefaultSwitchConfig(9000))
	for i := int64(0); i < 500; i++ {
		q.Enqueue(data(a, i))
		if i%3 == 0 {
			fabric.Free(q.Dequeue())
		}
	}
	if q.data.Cap() != 8 || q.DataPackets() != 8 {
		t.Errorf("after 500 arrivals: %d packets in a data ring of %d, want 8 in 8", q.DataPackets(), q.data.Cap())
	}
}
