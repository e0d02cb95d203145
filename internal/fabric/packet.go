// Package fabric models the data plane of a datacenter network: packets,
// output-queued store-and-forward switch ports, queue disciplines (drop-tail,
// ECN marking, lossless/PFC), switches and hosts. It is protocol-agnostic;
// transport protocols (internal/core, internal/tcp, ...) and the NDP switch
// service model (internal/core) plug in through the Queue and Sink
// interfaces.
//
// Packets come from a per-shard Arena and go back to it through Free, so the
// per-packet hot path performs no allocation; this keeps the Go GC out of
// packet-rate timing, which matters when a single run forwards tens of
// millions of packets.
package fabric

import (
	"fmt"

	"ndp/internal/sim"
)

// PacketType identifies the protocol role of a packet.
type PacketType uint8

// Packet types used across all transports in this repository.
const (
	// Data is a payload-bearing packet (possibly trimmed to a header).
	Data PacketType = iota
	// Ack acknowledges received data (NDP per-packet ACK, TCP cumulative ACK).
	Ack
	// Nack reports a trimmed header's arrival to the sender (NDP).
	Nack
	// Pull is an NDP receiver-driven credit packet.
	Pull
	// CNP is a DCQCN congestion notification packet.
	CNP
)

// String returns a short human-readable name for tracing.
func (t PacketType) String() string {
	switch t {
	case Data:
		return "DATA"
	case Ack:
		return "ACK"
	case Nack:
		return "NACK"
	case Pull:
		return "PULL"
	case CNP:
		return "CNP"
	}
	return fmt.Sprintf("PacketType(%d)", uint8(t))
}

// Packet flags: eight, one byte.
const (
	// FlagSYN marks first-window packets (NDP puts it on every packet of
	// the first RTT so connection state can be established by whichever
	// arrives first; TCP uses it conventionally).
	FlagSYN uint8 = 1 << iota
	// FlagFIN marks the sender's last packet ("when the sender runs out of
	// data to send, it marks the last packet").
	FlagFIN
	// FlagTrimmed marks a data packet whose payload was cut by a switch.
	FlagTrimmed
	// FlagBounced marks a header returned to its sender by a switch whose
	// header queue overflowed (NDP return-to-sender, §3.2.4).
	FlagBounced
	// FlagCE is the ECN congestion-experienced mark set by a queue.
	FlagCE
	// FlagECNEcho echoes FlagCE back to the sender in an ACK.
	FlagECNEcho
	// FlagPull on a Nack asks the sender to retransmit immediately
	// (the NACK "has the PULL bit set" in Figure 3).
	FlagPull
	// FlagRTX marks a retransmission, for accounting only.
	FlagRTX
)

// HeaderSize is the on-wire size in bytes of a trimmed header or a control
// packet (ACK/NACK/PULL/CNP), matching the paper's 64-byte accounting.
const HeaderSize = 64

// Packet is the single packet representation shared by every protocol in the
// repository. Fields are a union of what the protocols need; keeping one
// pooled struct avoids per-protocol allocation in the forwarding path.
//
// It is one 64-byte cache line (TestPacketIsOneCacheLine), and an arena
// chunk starts every packet on a line of its own: a hop touches one line of
// packet. Two words are shared between transports that never use both:
//
//   - AckNo is TCP's cumulative ACK; on an NDP PULL and a pHost token the same
//     word is the pull sequence (PullSeq, SetPullSeq).
//   - Sent is when a data packet left its sender; on a TCP ACK, whose own send
//     time nothing reads, it is that data packet's Sent echoed back for the
//     RTT sample.
//
// Route is a source route as an index, not a hop list: the topology's
// RouteFunc resolves it switch by switch (FatTree and TwoTier compute the
// egress port, Jellyfish looks up its enumerated route, using Hop). −1 means
// destination-routed. PathID is the sender's scoreboard index, which an NDP
// ACK or NACK echoes from the data packet while riding a Route of its own,
// so on those two fields differ.
type Packet struct {
	Type  PacketType
	Flags uint8
	Hop   uint8 // switches passed on an enumerated route (Jellyfish)
	// freed guards against double frees.
	freed  bool
	Route  int16 // index into Cluster.Paths(Src, Dst); -1 = destination-routed
	PathID int16 // sender's index for the path scoreboard

	Flow uint64 // connection identifier, globally unique
	Src  int32  // source host id
	Dst  int32  // destination host id

	Seq      int64 // data sequence (packets for NDP, bytes for TCP-family)
	AckNo    int64 // cumulative ACK (TCP-family); PullSeq (NDP, pHost)
	Size     int32 // current wire size in bytes (shrinks when trimmed)
	DataSize int32 // payload bytes this packet delivers when untrimmed

	Sent sim.Time // when the packet left the sender; a TCP ACK's RTT echo

	// owner is the Arena whose books the packet is on: the one it was
	// allocated from, or after a cross-shard handoff the one that adopted
	// it. Free routes through it, so the ~25 call sites that release
	// packets never need to know which shard allocated one.
	owner *Arena
}

// PullSeq is an NDP PULL's (or a pHost token's) sequence number: the
// cumulative credit the receiver has granted, kept in the AckNo word.
func (p *Packet) PullSeq() int64 { return p.AckNo }

// SetPullSeq sets the pull sequence number.
func (p *Packet) SetPullSeq(n int64) { p.AckNo = n }

// IsControl reports whether the packet gets control-plane priority at NDP
// switches and host NICs: trimmed headers, ACKs, NACKs, PULLs and CNPs.
func (p *Packet) IsControl() bool {
	return p.Type != Data || p.Flags&FlagTrimmed != 0
}

// Trim cuts the payload, leaving a HeaderSize-byte header on the wire.
func (p *Packet) Trim() {
	p.Flags |= FlagTrimmed
	p.Size = HeaderSize
}

// Trimmed reports whether the payload has been cut.
func (p *Packet) Trimmed() bool { return p.Flags&FlagTrimmed != 0 }

// Bounce converts a header into a return-to-sender packet: source and
// destination swap and the packet loses its source route so that switches
// fall back to destination-based routing toward the original sender. PathID
// stays: the sender charges the bounce to the path the data took.
func (p *Packet) Bounce() {
	p.Flags |= FlagBounced
	p.Src, p.Dst = p.Dst, p.Src
	p.Route = -1
	p.Hop = 0
}

// String formats the packet for the double-free panic and test failures; it
// allocates, and nothing on the steady-state path calls it.
func (p *Packet) String() string {
	trim := ""
	if p.Trimmed() {
		trim = "/trim"
	}
	if p.Flags&FlagBounced != 0 {
		trim += "/bounce"
	}
	return fmt.Sprintf("%v%s flow=%d %d->%d seq=%d size=%d", p.Type, trim, p.Flow, p.Src, p.Dst, p.Seq, p.Size)
}

// Free returns a packet to its owning arena. The caller must not retain
// references. Every packet has an owner — the arenas are the only allocator —
// so one without (a &Packet{} built outside them) panics here, where it
// would otherwise leave the simulation uncounted by any InUse.
func Free(p *Packet) {
	if p == nil {
		return
	}
	if p.owner == nil {
		panic("fabric: free of a packet no arena owns: " + p.String())
	}
	p.owner.put(p)
}

// Release is Free at teardown: it settles the owning arena's books — InUse,
// and the flag a second free panics on — without putting the packet back on
// a free-list. The ReleasePackets paths and the stacks' Close use it:
// refilling the list of a finished simulation with everything in flight at
// the deadline only reallocated it, up to that size, and Arena.Recycle
// rebuilds the list of a closed network whole.
func Release(p *Packet) {
	if p != nil {
		p.owner.settle(p)
	}
}

// MSL is the maximum segment lifetime every transport's reuse rules assume:
// in a datacenter no packet outlives 1 ms (the worst-case RTT with NDP's
// small queues is ~400 µs, §3.2.4). 2*MSL after a flow's sender completed
// no packet of the flow can still exist: then its receiver is released and
// both ends' pooled state may serve another flow (Endpoint.Finish,
// RetireList); until then the flow stays registered.
const MSL = sim.Millisecond
