package core

import (
	"testing"
	"testing/quick"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Property: under any interleaving of enqueues (data/control) and dequeues,
// the NDP switch queue conserves packets — every packet offered is either
// still queued, was dequeued, was bounced, or was counted as a drop — and
// byte accounting never goes negative, data depth never exceeds the cap.
func TestSwitchQueueConservationProperty(t *testing.T) {
	type op struct {
		Enq  bool
		Ctrl bool
	}
	prop := func(ops []op, seed uint64) bool {
		cfg := DefaultSwitchConfig(9000)
		cfg.HeaderCapBytes = 4 * fabric.HeaderSize // tiny: force bounces
		q, a := NewSwitchQueue(cfg, sim.NewRand(seed)), fabric.NewArena()
		bounced := 0
		q.BounceSink = func(p *fabric.Packet) { bounced++; fabric.Free(p) }
		offered, dequeued := 0, 0
		for _, o := range ops {
			if o.Enq {
				offered++
				if o.Ctrl {
					q.Enqueue(a.NewControl(fabric.Ack, 1, 0, 1))
				} else {
					q.Enqueue(a.NewData(1, 0, 1, 0, 9000))
				}
			} else if p := q.Dequeue(); p != nil {
				dequeued++
				fabric.Free(p)
			}
		}
		if q.Bytes() < 0 || q.DataPackets() < 0 || q.HeaderPackets() < 0 {
			return false
		}
		if q.DataPackets() > cfg.DataCapPackets {
			return false
		}
		queued := q.DataPackets() + q.HeaderPackets()
		return offered == dequeued+queued+bounced+int(q.Stats().Drops) && drained(q, a)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the WRR scheduler never serves more than HeaderWRR consecutive
// control packets while data is waiting.
func TestSwitchQueueWRRBoundProperty(t *testing.T) {
	prop := func(nCtrlRaw, nDataRaw uint8) bool {
		cfg := DefaultSwitchConfig(9000)
		q, a := NewSwitchQueue(cfg, sim.NewRand(1)), fabric.NewArena()
		nCtrl := int(nCtrlRaw)%200 + 1
		nData := int(nDataRaw)%8 + 1
		for i := 0; i < nData; i++ {
			q.Enqueue(a.NewData(1, 0, 1, int64(i), 9000))
		}
		for i := 0; i < nCtrl; i++ {
			q.Enqueue(a.NewControl(fabric.Pull, 1, 1, 0))
		}
		consec := 0
		for !q.Empty() {
			p := q.Dequeue()
			if p.IsControl() {
				consec++
				// Data is waiting whenever DataPackets() > 0.
				if consec > cfg.HeaderWRR && q.DataPackets() > 0 {
					return false
				}
			} else {
				consec = 0
			}
			fabric.Free(p)
		}
		return a.InUse() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a single NDP transfer of any size through a clean FatTree
// delivers exactly once per sequence number: the receiver counts no
// duplicates and the byte count is exact.
func TestNoDuplicateDeliveryProperty(t *testing.T) {
	prop := func(sizeRaw uint32) bool {
		size := int64(sizeRaw%200_000) + 1
		net, st := ndpNet(4, DefaultSwitchConfig(9000), DefaultConfig())
		var rcv *Receiver
		st[1].Connect(st[14], size, FlowOpts{OnReceiverDone: func(r *Receiver) { rcv = r }})
		net.EL.RunUntil(time500ms())
		return rcv != nil && rcv.Bytes() == size && rcv.Dups == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func time500ms() sim.Time { return 500 * sim.Millisecond }

// The effective RTO must scale with the initial window so that a large
// line-rate burst does not trigger spurious timeouts of packets still
// waiting in the local NIC queue (regression test for the IW=256 cliff).
func TestLargeIWNoSpuriousRTO(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IW = 256
	net, st := ndpNet(4, DefaultSwitchConfig(9000), cfg)
	s := st[0].Connect(st[15], 9_000_000, FlowOpts{})
	net.EL.RunUntil(sim.Second)
	if !s.Complete() {
		t.Fatal("transfer incomplete")
	}
	if s.RtxFromTimeout != 0 {
		t.Errorf("%d spurious timeout retransmissions with IW=256 on an idle path", s.RtxFromTimeout)
	}
}

// One bounce probe at a time: an extreme incast with tiny header queues
// must not retransmit-on-bounce more than a small multiple of the flow's
// packet count (the incast-echo regression).
func TestBounceProbeBoundsEcho(t *testing.T) {
	scfg := DefaultSwitchConfig(9000)
	scfg.HeaderCapBytes = 6 * fabric.HeaderSize
	net, st := ndpNet(4, scfg, DefaultConfig())
	done := 0
	var snds []*Sender
	for i := 1; i < 16; i++ {
		snds = append(snds, st[i].Connect(st[0], 270_000, FlowOpts{
			OnReceiverDone: func(r *Receiver) { done++ },
		}))
	}
	net.EL.RunUntil(2 * sim.Second)
	if done != 15 {
		t.Fatalf("%d/15 completed", done)
	}
	var bounceRtx, pkts int64
	for _, s := range snds {
		bounceRtx += s.RtxFromBounce
		pkts += s.TotalPackets()
	}
	if ratio := float64(bounceRtx) / float64(pkts); ratio > 3 {
		t.Errorf("bounce retransmissions per packet = %.2f; echo suppression failed", ratio)
	}
}
