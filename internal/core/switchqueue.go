// Package core implements the paper's primary contribution: the NDP switch
// service model (§3.1) and the NDP receiver-driven transport protocol
// (§3.2), including per-packet multipath spraying with sender-permuted path
// lists, packet trimming, priority forwarding of headers and control
// packets, pull pacing with per-connection fair queuing and strict
// prioritization, the path scoreboard for asymmetric networks (§3.2.3), and
// return-to-sender (§3.2.4).
package core

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// SwitchConfig parameterizes the NDP switch queue. The zero value is not
// usable; call DefaultSwitchConfig.
type SwitchConfig struct {
	// DataCapPackets is the low-priority data queue capacity in packets
	// (the paper's famous 8).
	DataCapPackets int
	// HeaderCapBytes is the high-priority queue capacity in bytes. The
	// paper sizes it as the same memory as the data queue: 8 x 9KB holds
	// 1125 64-byte headers.
	HeaderCapBytes int
	// HeaderWRR is the weighted-round-robin ratio: at most this many
	// consecutive header/control packets are served before one data packet
	// when both queues are occupied (10:1 in the paper). Zero means strict
	// priority — the congestion-collapse ablation.
	HeaderWRR int
	// TrimArrivingOnly disables the 50% coin and always trims the arriving
	// packet — the CP-style behaviour that exhibits phase effects; ablation
	// for Figure 2.
	TrimArrivingOnly bool
	// DisableBounce drops headers on header-queue overflow instead of
	// returning them to the sender — ablation for Figure 20.
	DisableBounce bool
}

// DefaultSwitchConfig returns the paper's switch parameters for the given
// MTU: 8-packet data queue, equal-memory header queue, 10:1 WRR.
func DefaultSwitchConfig(mtu int) SwitchConfig {
	return SwitchConfig{
		DataCapPackets: 8,
		HeaderCapBytes: 8 * mtu,
		HeaderWRR:      10,
	}
}

// SwitchQueue is the NDP switch output-port discipline:
//
//   - two queues per port: low-priority data, high-priority for trimmed
//     headers, ACKs, NACKs and PULLs;
//   - when the data queue is full, an arriving data packet is trimmed to a
//     header — with probability 1/2 the packet at the tail of the data
//     queue is trimmed instead and the arrival takes its place, which
//     breaks up the phase effects that make CP unfair;
//   - the scheduler runs weighted round-robin between the queues (10
//     headers : 1 data packet) so header floods cannot collapse goodput;
//   - if the header queue overflows, the header is returned to its sender
//     (return-to-sender) rather than dropped; a header that has already
//     been bounced once is dropped.
type SwitchQueue struct {
	fabric.QueueStats
	cfg SwitchConfig

	data, hdr       fabric.Ring[*fabric.Packet]
	hdrServed       int // consecutive header packets served since last data
	dataBytesQueued int
	hdrBytesQueued  int

	// BounceSink receives headers being returned to their sender; wire it
	// to the owning switch (WireBounce), whose Receive routes them back. If
	// nil, overflow headers are dropped.
	BounceSink fabric.Sink

	// rand is the trim coin's own stream. It comes last: it is drawn only
	// when the data queue is full, and the fields above are read for every
	// packet.
	rand sim.Rand
}

// ringFirstMax is the most a switch queue's ring allocates up front. The
// header queue is bounded in bytes (1125 headers at the paper's sizes), so
// it starts here and a busy one doubles; the data queue never exceeds
// DataCapPackets, so its first buffer is that — the paper's 8 exactly — or
// this when the bound is larger: a deep ablation queue that really fills
// doubles its way up.
const ringFirstMax = 64

// NewSwitchQueue builds an NDP port queue whose 50% trim coin draws from a
// stream of its own, seeded from one draw of rand. The stream must belong to
// this queue alone: one shared across queues would make coin values depend on
// the global order in which queues trim — an order a sharded run cannot
// reproduce (see QueueFactory).
func NewSwitchQueue(cfg SwitchConfig, rand *sim.Rand) *SwitchQueue {
	q := &SwitchQueue{cfg: cfg}
	q.rand.Init(rand.SplitSeed())
	return q
}

// Enqueue applies the NDP admission policy.
func (q *SwitchQueue) Enqueue(p *fabric.Packet) {
	q.NoteEnqueue(p)
	if p.IsControl() {
		q.enqueueControl(p)
		return
	}
	if q.data.Len() < q.cfg.DataCapPackets {
		q.dataBytesQueued += int(p.Size)
		q.data.Push(p, min(q.cfg.DataCapPackets, ringFirstMax))
		q.NoteDepth(q.dataBytesQueued + q.hdrBytesQueued)
		return
	}
	// Data queue full: trim. With probability 1/2 the tail of the data
	// queue is the victim and the arrival takes its place.
	victim := p
	if !q.cfg.TrimArrivingOnly && q.data.Len() > 0 && q.rand.Bool() {
		victim = q.data.PopTail()
		q.dataBytesQueued -= int(victim.Size)
		q.dataBytesQueued += int(p.Size)
		q.data.Push(p, min(q.cfg.DataCapPackets, ringFirstMax))
	}
	victim.Trim()
	q.Trims++
	q.enqueueControl(victim)
}

func (q *SwitchQueue) enqueueControl(p *fabric.Packet) {
	if q.hdrBytesQueued+int(p.Size) <= q.cfg.HeaderCapBytes {
		q.hdrBytesQueued += int(p.Size)
		q.hdr.Push(p, ringFirstMax)
		q.NoteDepth(q.dataBytesQueued + q.hdrBytesQueued)
		return
	}
	// Header queue overflow: return-to-sender, unless the packet has
	// already been bounced once (or bouncing is disabled), in which case
	// it is lost and the sender's RTO is the backstop.
	if !q.cfg.DisableBounce && q.BounceSink != nil &&
		p.Trimmed() && p.Flags&fabric.FlagBounced == 0 {
		q.Bounces++
		p.Bounce()
		q.BounceSink.Receive(p)
		return
	}
	q.Drops++
	fabric.Free(p)
}

// Dequeue serves the header queue with priority, but after HeaderWRR
// consecutive header packets it serves one data packet so that trimmed
// headers cannot starve payloads (the anti-collapse measure of §3.1).
func (q *SwitchQueue) Dequeue() *fabric.Packet {
	serveData := q.hdr.Len() == 0 ||
		(q.cfg.HeaderWRR > 0 && q.hdrServed >= q.cfg.HeaderWRR && q.data.Len() > 0)
	if serveData && q.data.Len() > 0 {
		p := q.data.Pop()
		q.dataBytesQueued -= int(p.Size)
		q.hdrServed = 0
		return p
	}
	if p := q.hdr.Pop(); p != nil {
		q.hdrBytesQueued -= int(p.Size)
		q.hdrServed++
		return p
	}
	return nil
}

// Empty reports whether both queues are empty.
func (q *SwitchQueue) Empty() bool { return q.data.Len() == 0 && q.hdr.Len() == 0 }

// Bytes returns total queued bytes across both queues.
func (q *SwitchQueue) Bytes() int { return q.dataBytesQueued + q.hdrBytesQueued }

// DataPackets returns the data-queue depth in packets.
func (q *SwitchQueue) DataPackets() int { return q.data.Len() }

// HeaderPackets returns the header-queue depth in packets.
func (q *SwitchQueue) HeaderPackets() int { return q.hdr.Len() }

// QueueFactory returns a topo.Config-compatible queue factory producing NDP
// switch queues with the given configuration, all of one topology's carved
// from one slab. Each queue's trim coin draws from its own RNG stream,
// derived from the seed and the port's seed (a hash of its stable name):
// coin values then depend only on the sequence of trims at that one port,
// never on the global interleaving of trims across the fabric, which keeps
// results identical for any shard count. Call WireBounce on the built
// topology's switches afterwards so return-to-sender headers re-enter the
// routing pipeline.
func QueueFactory(cfg SwitchConfig, seed uint64) func(seeds []uint64) []fabric.Queue {
	return func(seeds []uint64) []fabric.Queue {
		return fabric.QueueSlab(len(seeds), func(i int, q *SwitchQueue) {
			q.cfg = cfg
			q.rand.Init(seed ^ seeds[i])
		})
	}
}

// WireBounce connects every NDP SwitchQueue on the given switches to its
// switch, so return-to-sender headers re-enter the routing pipeline. Call
// after the topology is built.
func WireBounce(switches []*fabric.Switch) {
	for _, sw := range switches {
		for _, port := range sw.Ports {
			if q, ok := port.Q.(*SwitchQueue); ok {
				q.BounceSink = sw
			}
		}
	}
}
