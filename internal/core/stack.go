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
	// PullSpacing is the interval between PULL packets from one receiver.
	// Zero derives it from the NIC rate so that pulled data arrives just
	// under line rate (MTU+header serialization time).
	PullSpacing sim.Time
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

// PathsFunc enumerates source routes from this stack's host to a
// destination host; topologies provide it (e.g. (*topo.FatTree).Paths).
type PathsFunc func(dst int32) [][]int16

// Stack is the per-host NDP endpoint: it owns the host's flow demultiplexer,
// the single shared pull pacer ("a receiver only has one pull queue, shared
// by all connections for which it is the receiver"), time-wait state for
// at-most-once connection semantics, and the listen hook that instantiates
// receiver state from whichever first-window packet arrives first.
type Stack struct {
	Host *fabric.Host

	cfg     Config
	el      *sim.EventList
	arena   *fabric.Arena
	pathsTo PathsFunc
	// rand, demux and pacer live inside the stack (one allocation for all
	// four objects); code passes &st.rand etc. where a pointer is needed.
	rand  sim.Rand
	demux fabric.Demux
	pacer pullPacer

	// rxq holds packets inside the RxDelay processing window, in arrival
	// order (the delay is constant, so release order is FIFO).
	rxq fabric.Ring[*fabric.Packet]

	listening  bool
	onComplete func(*Receiver)
	connects   uint64 // flow ids Connect has allocated

	// flows holds every flow this host currently has state for — as sender,
	// as receiver, or pre-registered ahead of its first packet: one entry,
	// and so one insert and one delete, per flow. The entry goes when the
	// flow's pooled state is reused (reclaimFlow).
	flows fabric.FlowTable[flowEntry]

	// timeWait records closed flow ids with their expiry, fabric.MSL after
	// closing, so duplicate connections are rejected (at-most-once, §3.2.2).
	// A reclaimed flow's id is pinned forever (expiry Infinity), so this
	// table only grows — which is why it is a thin flow -> expiry table of
	// its own (16 bytes an id) and not a field of the flows entry: an entry
	// that can never be deleted must not be a fat one.
	timeWait    fabric.FlowTable[sim.Time]
	DupRejected int64

	// retiredS/retiredR are FIFO free-lists of completed flow state whose
	// slice-backed per-packet arrays (and pull-queue entries) later flows
	// reuse. A retired object is only taken once quiescent: at least two
	// maximum segment lifetimes past its completion — by the same
	// datacenter-MSL argument that bounds time-wait (§3.2.2), no packet
	// for the flow can still exist in the network — with its timer
	// disarmed and its pull entry drained. Until then the old flow stays
	// registered, so late duplicates and stale headers are handled
	// exactly as before pooling existed. Closed-loop workloads (the rpc
	// scenario starts thousands of short flows per host) were allocating
	// a full Sender/Receiver pair plus packet-state arrays per StartFlow.
	// A closed loop never lets these lists drain (something is always
	// waiting out its 2*MSL), so they must give back the front a Pop frees
	// without draining, or they grow with simulated time.
	retiredS fabric.Ring[*Sender]
	retiredR fabric.Ring[*Receiver]
}

// retiredFirst is a free-list's first buffer: room for the flows one host
// completes within 2*MSL in the rpc scenario (14 as sender); more doubles it.
const retiredFirst = 16

// rxqFirst is the RxDelay queue's first buffer: the arrivals of one
// processing delay, which at line rate is a few packets.
const rxqFirst = 8

// NewStack installs an NDP endpoint on a host. pathsTo must enumerate source
// routes toward any peer the host will talk to.
func NewStack(host *fabric.Host, pathsTo PathsFunc, cfg Config) *Stack {
	cfg = cfg.withDefaults()
	st := &Stack{
		Host:    host,
		cfg:     cfg,
		el:      host.EventList(),
		arena:   fabric.AttachArena(host.EventList()),
		pathsTo: pathsTo,
	}
	spacing := cfg.PullSpacing
	if spacing == 0 {
		// Pace pulls so the elicited data arrives marginally below line
		// rate (~1.5% slack). Exactly line rate would leave the last-hop
		// queue wherever the first-RTT burst put it — often full — and
		// then path-length jitter re-trims pulled retransmissions; a
		// little slack drains the queue between pulls.
		spacing = sim.TransmissionTime(cfg.MTU+2*fabric.HeaderSize, host.LinkRate())
	}
	st.rand.Init(cfg.Seed ^ (uint64(host.ID)+1)*0x9e3779b97f4a7c15)
	st.pacer.init(st, spacing)
	if cfg.RxDelay > 0 {
		host.Stack = fabric.SinkFunc(st.delayRx)
	} else {
		host.Stack = &st.demux
	}
	st.demux.Listen = st.listen
	return st
}

// delayRx defers an arriving packet by the configured host processing delay
// (the Figure 11 endpoint model). The delay is constant, so deferred
// packets release in arrival order: a FIFO of the in-delay packets plus one
// typed event per arrival replaces a closure per packet.
func (st *Stack) delayRx(p *fabric.Packet) {
	st.rxq.Push(p, rxqFirst)
	st.el.ScheduleAfter(st.cfg.RxDelay, st, 0)
}

// OnEvent releases the oldest delayed arrival into the demux (sim.Handler).
func (st *Stack) OnEvent(uint64) { st.demux.Receive(st.rxq.Pop()) }

// Close releases packets the stack still holds — arrivals parked inside the
// RxDelay processing window. Teardown only; idempotent.
func (st *Stack) Close() {
	for st.rxq.Len() > 0 {
		fabric.Release(st.rxq.Pop())
	}
}

// Config returns the stack's effective configuration.
func (st *Stack) Config() Config { return st.cfg }

// Listen accepts incoming connections; onComplete (may be nil) fires when a
// receiver has all its data.
func (st *Stack) Listen(onComplete func(*Receiver)) {
	st.listening = true
	st.onComplete = onComplete
}

// SetPriority marks a flow for strict-priority pulling at this receiver
// ("the receiver knows its own priorities, and can pull high priority
// traffic more often than low priority traffic").
func (st *Stack) SetPriority(flow uint64) { st.flows.Ref(flow).prio = true }

// listen is the demux hook: it creates receiver state for an unknown flow,
// but only from packets that carry the SYN flag (every packet of the first
// window does) and only if the flow id is not in time-wait.
func (st *Stack) listen(p *fabric.Packet) fabric.Sink {
	if !st.listening || p.Flags&fabric.FlagSYN == 0 {
		return nil
	}
	if p.Type != fabric.Data {
		return nil
	}
	if exp, ok := st.timeWait.Get(p.Flow); ok && st.el.Now() < exp {
		st.DupRejected++
		return nil
	}
	// newReceiver may reclaim a retired flow, which deletes from st.flows:
	// take the entry only afterwards.
	r := newReceiver(st, p.Flow, p.Src)
	e := st.flows.Ref(p.Flow)
	r.fp.prio = e.prio
	if e.obs.done != nil {
		r.OnComplete = e.obs.done
	} else {
		r.OnComplete = st.onComplete
	}
	r.OnCompleteAt = e.obs.doneAt
	r.OnData = e.obs.data
	e.receiver = r
	return r
}

// Receiver returns the receiver state for a flow, if any.
func (st *Stack) Receiver(flow uint64) *Receiver {
	e, _ := st.flows.Get(flow)
	return e.receiver
}

// Sender returns the sender state for a flow, if any.
func (st *Stack) Sender(flow uint64) *Sender {
	e, _ := st.flows.Get(flow)
	return e.sender
}

// enterTimeWait records a flow id for MSL so a duplicate connection attempt
// with the same id is rejected.
func (st *Stack) enterTimeWait(flow uint64) {
	st.timeWait.Put(flow, st.el.Now()+fabric.MSL)
}

// retireSender parks a completed sender on the free-list; takeRetiredSender
// may hand its state to a later flow once it is quiescent.
func (st *Stack) retireSender(s *Sender) { st.retiredS.Push(s, retiredFirst) }

// retireReceiver parks a completed receiver on the free-list.
func (st *Stack) retireReceiver(r *Receiver) { st.retiredR.Push(r, retiredFirst) }

// takeRetiredSender pops the oldest retired sender if it is safely
// reusable: complete, timer disarmed, and at least 2*MSL past completion
// (no packet for the old flow can still exist). The old flow is
// unregistered at that point — any later arrival for it would have been a
// no-op on the completed sender anyway. Returns nil when the head is not
// yet quiescent; the list is FIFO, so the head is always the oldest.
func (st *Stack) takeRetiredSender() *Sender {
	s := st.retiredS.Peek()
	if s == nil || s.timer.Pending() || st.el.Now() < s.CompletedAt+2*fabric.MSL {
		return nil
	}
	st.retiredS.Pop()
	st.reclaimFlow(s.Flow)
	return s
}

// reclaimFlow forgets a flow whose pooled state is being reused: its demux
// registration and its flows entry (sender or receiver pointer, observers,
// priority) go, and its id is pinned in time-wait forever. Flow ids are
// never legitimately reused (every allocator is a monotone per-source-host
// counter), so a packet for the id arriving after reclamation can only be a
// pathologically late duplicate — the permanent time-wait entry makes
// listen() reject it instead of resurrecting a ghost receiver that would
// re-fire the flow's completion callbacks.
func (st *Stack) reclaimFlow(flow uint64) {
	st.demux.Unregister(flow)
	st.flows.Delete(flow)
	st.timeWait.Put(flow, sim.Infinity)
}

// takeRetiredReceiver pops the oldest retired receiver if quiescent: 2*MSL
// past completion and its pull-queue entry fully drained (a stale queued
// entry still holds the pointer, and reusing it would release phantom pull
// credit for the new flow).
func (st *Stack) takeRetiredReceiver() *Receiver {
	r := st.retiredR.Peek()
	if r == nil || r.fp.queued || st.el.Now() < r.CompletedAt+2*fabric.MSL {
		return nil
	}
	st.retiredR.Pop()
	st.reclaimFlow(r.Flow)
	return r
}

// sendControl emits an ACK/NACK/PULL toward peer on a random source route
// (or destination-routed in the switch-LB ablation), through the host NIC's
// control-priority band.
func (st *Stack) sendControl(p *fabric.Packet) {
	if !st.cfg.SwitchLB {
		paths := st.pathsTo(p.Dst)
		if len(paths) > 0 {
			p.Path = paths[st.rand.Intn(len(paths))]
			p.Hop = 0
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
	// OnReceiverDone fires when the receiver holds all data (the FCT
	// event used throughout the evaluation).
	OnReceiverDone func(r *Receiver)
	// OnReceiverDoneAt is a narrower completion hook: it receives only the
	// completion time. Callers that need nothing else use it so the
	// harness never has to wrap their callback in a per-flow adapter
	// closure. Both hooks fire if both are set.
	OnReceiverDoneAt func(at sim.Time)
	// OnReceiverData observes every newly received payload byte count
	// (goodput time series).
	OnReceiverData func(bytes int64)
	// IW overrides the stack's initial window for this flow.
	IW int
}

// Connect starts an NDP transfer of size bytes from this stack to the dst
// stack. size < 0 means an unbounded flow (permutation-style long flows).
// Transfer begins immediately: NDP is a zero-RTT protocol, so the first
// window leaves at line rate with SYN set on every packet. Connect touches
// both stacks inline, so it is the single-scheduling-domain convenience; a
// sharded engine defers the sender's Registration instead
// (harness.NDPNet.StartFlow). Without an explicit opts.Flow the id comes
// from this stack's own counter, host index in the high word, so it is
// unique across stacks and repeats from run to run; nothing reads a flow id
// but the demuxes, as identity.
func (st *Stack) Connect(dst *Stack, size int64, opts FlowOpts) *Sender {
	if opts.Flow == 0 {
		st.connects++
		opts.Flow = uint64(st.Host.ID+1)<<32 | st.connects
	}
	dst.PreRegister(opts.Flow, opts.Priority, opts.OnReceiverDone, opts.OnReceiverDoneAt, opts.OnReceiverData)
	s := st.Open(dst.Host.ID, size, opts)
	s.Start()
	return s
}

// flowEntry is what a stack knows about one live flow. A host is the flow's
// sender or its receiver, never both (a host has no route to itself).
type flowEntry struct {
	sender   *Sender
	receiver *Receiver
	obs      flowObs
	prio     bool
}

// flowObs bundles the receiver-side observers a caller installs for one
// flow ahead of its first packet.
type flowObs struct {
	done   func(*Receiver)
	doneAt func(sim.Time)
	data   func(int64)
}

// PreRegister installs receiver-side flow state ahead of the first packet:
// pull priority and completion/goodput observers. It runs in this stack's
// scheduling domain: the source host defers it here as the flow's
// Registration command (it must land before the first SYN arrives — the
// first data packet is at least a serialization plus the path's
// propagation away).
func (st *Stack) PreRegister(flow uint64, priority bool, onDone func(*Receiver), onDoneAt func(sim.Time), onData func(int64)) {
	if priority {
		st.SetPriority(flow)
	}
	if onDone != nil || onDoneAt != nil || onData != nil {
		st.flows.Ref(flow).obs = flowObs{done: onDone, doneAt: onDoneAt, data: onData}
	}
}

// Open builds the sender half of an NDP transfer toward host dst, touching
// only this stack's state; nothing is transmitted until Start. opts.Flow
// must be set. The receiver-side options travel separately: the caller
// delivers the sender's Registration to the destination stack's domain
// ahead of the first packet, then calls Start.
func (st *Stack) Open(dst int32, size int64, opts FlowOpts) *Sender {
	if opts.Flow == 0 {
		panic("core: Open needs an explicit flow id")
	}
	paths := st.pathsTo(dst)
	if len(paths) == 0 {
		panic(fmt.Sprintf("core: no paths from host %d to host %d", st.Host.ID, dst))
	}
	s := newSender(st, opts, dst, size, paths)
	st.flows.Ref(opts.Flow).sender = s
	st.demux.Register(opts.Flow, s)
	return s
}
