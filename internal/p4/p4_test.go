package p4

import (
	"testing"
	"testing/quick"

	"ndp/internal/fabric"
)

func data(a *fabric.Arena, seq int64, size int32) *fabric.Packet {
	return a.NewData(1, 0, 1, seq, size)
}

// noLeak transmits what sw still holds and reports whether every packet
// taken from a has come back.
func noLeak(a *fabric.Arena, sw *Pipeline) bool {
	for p, _ := sw.Transmit(); p != nil; p, _ = sw.Transmit() {
		fabric.Free(p)
	}
	return a.InUse() == 0
}

func TestDataFillsNormalQueueThenTruncates(t *testing.T) {
	sw := NewPipeline()
	a := fabric.NewArena()
	// 12KB buffer holds 8 x 1500B.
	for i := int64(0); i < 8; i++ {
		md := sw.Submit(data(a, i, 1500))
		if md.Prio != 0 || md.Truncated {
			t.Fatalf("packet %d: md=%+v, want normal queue untruncated", i, md)
		}
	}
	if sw.QS() != 12000 {
		t.Fatalf("qs = %d, want 12000", sw.QS())
	}
	md := sw.Submit(data(a, 8, 1500))
	if !md.Truncated || md.Prio != 1 {
		t.Fatalf("overflow packet md=%+v, want truncated into priority queue", md)
	}
	if sw.Truncs != 1 {
		t.Errorf("truncs = %d", sw.Truncs)
	}
	if !noLeak(a, sw) {
		t.Error("packets leaked")
	}
}

func TestControlPacketsGoDirectPrio(t *testing.T) {
	sw := NewPipeline()
	a := fabric.NewArena()
	for _, typ := range []fabric.PacketType{fabric.Ack, fabric.Nack, fabric.Pull} {
		md := sw.Submit(a.NewControl(typ, 1, 1, 0))
		if md.Prio != 1 || md.Truncated {
			t.Errorf("%v: md=%+v, want direct priority", typ, md)
		}
	}
	// Directprio must not touch the qs register.
	if sw.QS() != 0 {
		t.Errorf("control packets changed qs: %d", sw.QS())
	}
	if !noLeak(a, sw) {
		t.Error("packets leaked")
	}
}

func TestEgressDecrementsRegister(t *testing.T) {
	sw := NewPipeline()
	a := fabric.NewArena()
	sw.Submit(data(a, 0, 9000))
	sw.Submit(a.NewControl(fabric.Ack, 1, 1, 0))
	if sw.QS() != 9000 {
		t.Fatalf("qs = %d", sw.QS())
	}
	// Priority first; qs must not change for priority-queue packets.
	p, md := sw.Transmit()
	if p.Type != fabric.Ack || md.Prio != 1 || sw.QS() != 9000 {
		t.Fatalf("first transmit: %v md=%+v qs=%d", p, md, sw.QS())
	}
	fabric.Free(p)
	p, md = sw.Transmit()
	if p.Type != fabric.Data || md.Prio != 0 {
		t.Fatalf("second transmit: %v md=%+v", p, md)
	}
	if sw.QS() != 0 {
		t.Errorf("qs = %d after normal-queue egress, want 0", sw.QS())
	}
	fabric.Free(p)
	if p, _ := sw.Transmit(); p != nil {
		t.Error("empty pipeline transmitted a packet")
	}
	if !noLeak(a, sw) {
		t.Error("packets leaked")
	}
}

func TestPriorityQueueOverflowDrops(t *testing.T) {
	sw := NewPipeline()
	a := fabric.NewArena()
	sw.PrioCapBytes = 2 * fabric.HeaderSize
	sw.Submit(a.NewControl(fabric.Ack, 1, 1, 0))
	sw.Submit(a.NewControl(fabric.Ack, 1, 1, 0))
	md := sw.Submit(a.NewControl(fabric.Ack, 1, 1, 0))
	if !md.Dropped || sw.Drops != 1 {
		t.Errorf("md=%+v drops=%d, want overflow drop", md, sw.Drops)
	}
	if !noLeak(a, sw) {
		t.Error("packets leaked")
	}
}

func TestTableHitCounters(t *testing.T) {
	sw := NewPipeline()
	a := fabric.NewArena()
	sw.Submit(data(a, 0, 9000))
	sw.Submit(a.NewControl(fabric.Pull, 1, 1, 0))
	byName := map[string]int64{}
	for _, tb := range sw.Ingress {
		byName[tb.Name] = tb.Hits
	}
	if byName["Readregister"] != 2 {
		t.Errorf("Readregister hits = %d, want 2 (every packet)", byName["Readregister"])
	}
	if byName["Directprio"] != 1 || byName["Setprio"] != 1 {
		t.Errorf("Directprio=%d Setprio=%d, want 1 each", byName["Directprio"], byName["Setprio"])
	}
	if !noLeak(a, sw) {
		t.Error("packets leaked")
	}
}

// Property: the P4 pipeline and the behavioural SwitchQueue make the same
// trim-vs-enqueue decision for pure arrival sequences (no interleaved
// dequeues, no tail coin — the deterministic subset Figure 7 implements).
func TestPipelineMatchesBehaviouralModel(t *testing.T) {
	prop := func(ctrlMask uint16) bool {
		sw := NewPipeline()
		a := fabric.NewArena()
		// The behavioural model counts packets (8 x 1500B = 12KB budget).
		normalSlots := sw.BufferBytes / 1500
		used := 0
		for i := 0; i < 16; i++ {
			ctrl := ctrlMask&(1<<i) != 0
			if ctrl {
				md := sw.Submit(a.NewControl(fabric.Ack, 1, 1, 0))
				if md.Prio != 1 || md.Truncated {
					return false
				}
				continue
			}
			md := sw.Submit(data(a, int64(i), 1500))
			wantTrim := used >= normalSlots
			if md.Truncated != wantTrim {
				return false
			}
			if !wantTrim {
				used++
			}
		}
		return noLeak(a, sw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Register conservation: after any submit/transmit interleaving, qs equals
// the bytes of data packets still waiting in the normal queue.
func TestRegisterConservationProperty(t *testing.T) {
	prop := func(ops []bool) bool {
		sw := NewPipeline()
		a := fabric.NewArena()
		seq := int64(0)
		for _, submit := range ops {
			if submit {
				sw.Submit(data(a, seq, 1500))
				seq++
			} else if p, _ := sw.Transmit(); p != nil {
				fabric.Free(p)
			}
		}
		want := 0
		for _, p := range sw.Normal {
			want += int(p.Size)
		}
		return sw.QS() == want && noLeak(a, sw)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
