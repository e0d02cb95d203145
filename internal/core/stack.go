package core

import (
	"fmt"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Config parameterizes the NDP endpoint protocol. The zero value plus
// DefaultConfig's fill-ins match the paper's defaults.
type Config struct {
	// MTU is the maximum data packet size in bytes (paper default 9000).
	MTU int
	// IW is the initial window in packets: the amount pushed at line rate
	// in the first RTT before the protocol becomes receiver-driven
	// (paper default 30).
	IW int
	// RTO is the retransmission timeout, the backstop for corrupted or
	// doubly-bounced packets. With small queues the worst-case RTT is
	// ~400us, so 1ms is safe (§3.2.4).
	RTO sim.Time
	// PullJitter, when set, adds a sample to each pull gap — the empirical
	// imperfect-pacing model of Figures 12/13.
	PullJitter func(r *sim.Rand) sim.Time
	// RxDelay is a per-packet host processing delay applied before the
	// stack handles an arrival, modeling the endpoint costs the paper
	// measures on its DPDK testbed (Figure 11).
	RxDelay sim.Time
	// DisablePathPenalty turns off the path scoreboard of §3.2.3
	// (the "NDP without path penalty" line of Figure 22).
	DisablePathPenalty bool
	// SwitchLB makes senders emit destination-routed packets so switches
	// perform per-packet random ECMP instead of sender-chosen paths — the
	// source-vs-switch load-balancing ablation of §3.1.1 and §3.2.4.
	SwitchLB bool
	// PullFIFO serves the pull queue in strict arrival order instead of
	// round-robin fair queuing across connections — the ablation for the
	// receiver-fairness claims (§3.2's fair pull queue, Figure 21).
	PullFIFO bool
	// Seed perturbs the per-stack RNG (path permutations, control routing).
	Seed uint64
}

// DefaultConfig returns the paper's endpoint parameters.
func DefaultConfig() Config {
	return Config{MTU: 9000, IW: 30, RTO: sim.Millisecond}
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = 9000
	}
	if c.IW == 0 {
		c.IW = 30
	}
	if c.RTO == 0 {
		c.RTO = sim.Millisecond
	}
	return c
}

// Stack is the per-host NDP endpoint and the host's packet sink: it owns the
// single shared pull pacer ("a receiver only has one pull queue, shared by
// all connections for which it is the receiver"), and its fabric.Endpoint
// holds the live-flow table that dispatches arrivals and gives connections
// at-most-once semantics.
type Stack struct {
	// Endpoint's table holds every flow this host currently has state for,
	// as sender or as receiver, and so one insert and one delete per flow.
	// It is also what makes a connection at-most-once (§3.2.2): only the
	// sender's Registration opens a receiver, ahead of the flow's first
	// packet, so a duplicate SYN finds the live receiver and a SYN after the
	// flow's release finds no entry at all.
	fabric.Endpoint

	cfg   Config
	arena *fabric.Arena
	// rand and pacer live inside the stack (one allocation for all three
	// objects); code passes &st.rand etc. where a pointer is needed.
	rand  sim.Rand
	pacer pullPacer

	// rxq holds packets inside the RxDelay processing window, in arrival
	// order (the delay is constant, so release order is FIFO).
	rxq fabric.Ring[*fabric.Packet]

	connects uint32 // flow ids Connect has allocated: the low word of each

	// retiredS/retiredR are the free-lists of completed Senders and of
	// Receivers their flow's release handed back. An object there holds its
	// flow's identity but no working array: those went to spareS or spareR
	// the moment it completed. A sender waits out 2*MSL past its
	// completion, its timer disarmed, and stays registered until a later
	// flow takes it; a receiver is out of the table already, and waits only
	// for its pull entry to drain (a stale queued entry still holds the
	// pointer, and reusing it would release phantom pull credit for the new
	// flow).
	retiredS fabric.RetireList[*Sender]
	retiredR fabric.RetireList[*Receiver]

	// spareS and spareR are LIFOs of the working arrays that flows
	// finishing here gave back — a Sender's four, a Receiver's arrival
	// bitmap — which the next flows take: the newest were in use moments
	// ago, so they are still warm. Neither is longer than the most flows of
	// its kind the host has had live at once: the arrays follow the live
	// flows, not the flows in quarantine.
	spareS []sendBufs
	spareR [][]bool
}

// sendBufs is a Sender's working arrays: the buffers of its pkts window and
// rtxq ring (every slot zero), its perm and its pstats.
type sendBufs struct {
	pkts   []pkt
	perm   []int16
	pstats []pathStat
	rtxq   []int64
}

// retiredFirst is a free-list's first buffer: room for the flows one host
// completes within 2*MSL in the rpc scenario (14 as sender); more doubles it.
const retiredFirst = 16

// rxqFirst is the RxDelay queue's first buffer: the arrivals of one
// processing delay, which at line rate is a few packets.
const rxqFirst = 8

// NewStack installs an NDP endpoint on a host of the cluster net, which
// counts the source routes toward any peer the host will talk to and
// carries the flows' deferred commands.
func NewStack(host *fabric.Host, net fabric.Cluster, cfg Config) *Stack {
	cfg = cfg.withDefaults()
	st := &Stack{cfg: cfg, arena: fabric.AttachArena(host.EventList())}
	st.Endpoint.Init(host, net)
	// Pace pulls so the elicited data arrives marginally below line rate
	// (~1.5% slack). Exactly line rate would leave the last-hop queue
	// wherever the first-RTT burst put it — often full — and then
	// path-length jitter re-trims pulled retransmissions; a little slack
	// drains the queue between pulls.
	spacing := sim.TransmissionTime(cfg.MTU+2*fabric.HeaderSize, host.LinkRate())
	st.rand.Init(cfg.Seed ^ (uint64(host.ID)+1)*0x9e3779b97f4a7c15)
	st.pacer.init(st, spacing)
	if cfg.RxDelay > 0 {
		host.Stack = fabric.SinkFunc(st.delayRx)
	}
	return st
}

// el returns the scheduler the stack's host runs on.
func (st *Stack) el() *sim.EventList { return st.Host.EventList() }

// delayRx defers an arriving packet by the configured host processing delay
// (the Figure 11 endpoint model). The delay is constant, so deferred
// packets release in arrival order: a FIFO of the in-delay packets plus one
// typed event per arrival replaces a closure per packet.
func (st *Stack) delayRx(p *fabric.Packet) {
	st.rxq.Push(p, rxqFirst)
	st.el().ScheduleAfter(st.cfg.RxDelay, st, 0)
}

// OnEvent releases the oldest delayed arrival into the stack (sim.Handler).
func (st *Stack) OnEvent(uint64) { st.Receive(st.rxq.Pop()) }

// Close releases packets the stack still holds — arrivals parked inside the
// RxDelay processing window. Teardown only; idempotent.
func (st *Stack) Close() {
	for st.rxq.Len() > 0 {
		fabric.Release(st.rxq.Pop())
	}
}

// Config returns the stack's effective configuration.
func (st *Stack) Config() Config { return st.cfg }

// Receiver returns the receiver state for a flow, if any.
func (st *Stack) Receiver(flow uint64) *Receiver {
	r, _ := st.flow(flow).(*Receiver)
	return r
}

// Sender returns the sender state for a flow, if any.
func (st *Stack) Sender(flow uint64) *Sender {
	s, _ := st.flow(flow).(*Sender)
	return s
}

func (st *Stack) flow(flow uint64) fabric.Sink {
	s, _ := st.Flows.Get(flow)
	return s
}

// sendControl emits an ACK/NACK/PULL toward peer on a random source route
// (or destination-routed in the switch-LB ablation), through the host NIC's
// control-priority band.
func (st *Stack) sendControl(p *fabric.Packet) {
	if !st.cfg.SwitchLB {
		if n := st.Paths(p.Dst); n > 0 {
			p.Route = int16(st.rand.Intn(n))
		}
	}
	st.Host.Send(p)
}

// OnPullGap installs an observer of the actual gaps between transmitted
// PULL packets at this receiver (the Figure 12 measurement).
func (st *Stack) OnPullGap(fn func(gap sim.Time)) { st.pacer.OnGap = fn }

// FlowOpts tunes a single NDP transfer.
type FlowOpts struct {
	// Flow forces a connection id; zero allocates one.
	Flow uint64
	// Priority asks the receiver to pull this flow strictly first.
	Priority bool
	// OnSenderDone fires when every packet has been cumulatively acked.
	OnSenderDone func(s *Sender)
	// OnReceiverDoneAt fires with the completion time when the receiver
	// holds all data (the FCT event used throughout the evaluation).
	OnReceiverDoneAt func(at sim.Time)
	// OnReceiverData observes every newly received payload byte count
	// (goodput time series).
	OnReceiverData func(bytes int64)
}

// Connect starts an NDP transfer of size bytes from this stack to the dst
// stack. size < 0 means an unbounded flow (permutation-style long flows).
// Transfer begins immediately: NDP is a zero-RTT protocol, so the first
// window leaves at line rate with SYN set on every packet. Connect opens
// the receiver on dst inline, so it is the single-scheduling-domain
// convenience; a sharded engine defers the sender's Registration instead
// (harness.NDPNet.StartFlow). Without an explicit opts.Flow the id comes
// from this stack's own counter, host index in the high word, so it is
// unique across stacks and repeats from run to run; nothing reads a flow id
// but the flow tables, as identity.
func (st *Stack) Connect(dst *Stack, size int64, opts FlowOpts) *Sender {
	if opts.Flow == 0 {
		st.connects++
		opts.Flow = uint64(st.Host.ID+1)<<32 | uint64(st.connects)
	}
	s := st.Open(dst.Host.ID, size, opts)
	s.Registration(dst, st.el().Now()).OnEvent(0)
	s.Start()
	return s
}

// Open builds the sender half of an NDP transfer toward host dst, touching
// only this stack's state; nothing is transmitted until Start. opts.Flow
// must be set. The receiver-side options travel separately: the caller
// delivers the sender's Registration, which opens the receiver, to the
// destination stack's domain ahead of the first packet, then calls Start.
func (st *Stack) Open(dst int32, size int64, opts FlowOpts) *Sender {
	if opts.Flow == 0 {
		panic("core: Open needs an explicit flow id")
	}
	routes := st.Paths(dst)
	if routes == 0 {
		panic(fmt.Sprintf("core: no paths from host %d to host %d", st.Host.ID, dst))
	}
	s := newSender(st, opts, dst, size, routes)
	st.Flows.Put(opts.Flow, s)
	return s
}
