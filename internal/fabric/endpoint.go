package fabric

import "ndp/internal/sim"

// Cluster is what an endpoint needs of the topology its host runs on
// (topo.Cluster): route counts, path delays and the deferred-command
// channel.
type Cluster interface {
	// Paths returns how many source routes lead from host src to host dst
	// (0 when src == dst). A sender picks one as Packet.Route, an index in
	// [0, Paths); a switch drops a larger index as a RouteDrop.
	Paths(src, dst int32) int
	// MinPathDelay returns the minimum total propagation delay of any
	// physical path from host src to host dst — the earliest a causal
	// effect of an event at src can reach dst. Cross-shard deferred
	// commands (Defer) and receiver registrations use it as their delivery
	// offset: between hosts of different shards it is at least the
	// lookahead (a path crossing a cut has at least one link), yet it
	// depends only on the topology, never on the shard layout — which
	// keeps N-shard runs bit-identical to 1-shard runs.
	MinPathDelay(src, dst int) sim.Time
	// Defer runs h.OnEvent(arg) at time at in host to's scheduling domain,
	// emitted from host from's: the one channel by which a flow's set-up
	// and teardown cross from one end of the flow to the other.
	Defer(from, to int, at sim.Time, h sim.Handler, arg uint64)
}

// Endpoint is one host's transport endpoint, whatever the transport, and
// its packet sink: one table of the flows the host sends or receives, each
// mapped to the Sink of this host's end of the flow, through which every
// arrival is dispatched with one probe. A transport's host object (NDP's
// core.Stack, pHost's phost.Host) embeds one; the TCP family and DCQCN use
// it as it is.
//
// A flow's end enters the table when it is built and leaves it in one of
// two ways. A sender's entry is deleted when a later flow takes the
// sender's state from its RetireList. A receiver's entry is deleted by the
// flow's ReleaseFlow command, which its sender emits at completion
// (Finish), due 2*MSL later: until then the receiver answers late
// retransmissions, after it nothing of the flow is in flight.
type Endpoint struct {
	Host *Host
	Net  Cluster
	// Flows maps a flow id to this host's end of the flow: its sender, its
	// receiver, or what stands for one not yet open (an NDP registration).
	Flows FlowTable[Sink]
	// Strays counts the arrivals no flow claimed.
	Strays Strays
	// Accept, when set, is the listen hook: it is asked for the end of a
	// flow that a packet no flow claims opens (pHost opens a receiver from
	// whichever data packet of a flow arrives first); a nil answer makes the
	// packet a stray.
	Accept func(p *Packet) Sink
}

// Init sets ep up as host's endpoint on net and installs it as the host's
// packet sink.
func (ep *Endpoint) Init(host *Host, net Cluster) {
	*ep = Endpoint{Host: host, Net: net}
	host.Stack = ep
}

// Receive dispatches an arrival (Sink) to the end of its flow with one
// probe of the flow table, else to Accept; what neither claims is counted
// and freed.
func (ep *Endpoint) Receive(p *Packet) {
	if s, ok := ep.Flows.Get(p.Flow); ok {
		s.Receive(p)
		return
	}
	if ep.Accept != nil {
		if s := ep.Accept(p); s != nil {
			s.Receive(p)
			return
		}
	}
	ep.Strays.Free(p)
}

// Paths counts the source routes from this host to the host peer.
func (ep *Endpoint) Paths(peer int32) int { return ep.Net.Paths(ep.Host.ID, peer) }

// Finish is a completing sender's one teardown step across the flow: it
// sends dst, the flow's receiving endpoint, the flow's ReleaseFlow, due
// 2*MSL after done, the sender's completion.
func (ep *Endpoint) Finish(dst *Endpoint, flow uint64, done sim.Time) {
	ep.Net.Defer(int(ep.Host.ID), int(dst.Host.ID), quiet(done), (*ReleaseFlow)(dst), flow)
}

// Quiet reports whether nothing of a flow whose sender completed at done
// can still be in flight on el's domain: 2*MSL have passed, by the
// datacenter-MSL argument of §3.2.2. It is the earliest a flow's receiver
// may forget the flow (Finish's release is due then) and a retired sender
// may serve another flow (its Idle states it).
func Quiet(el *sim.EventList, done sim.Time) bool { return el.Now() >= quiet(done) }

func quiet(done sim.Time) sim.Time { return done + 2*MSL }

// ReleaseFlow is the one release command: a deferred command over the
// receiving endpoint of a flow, the flow id its argument (Finish emits it).
// It deletes the flow's entry and hands the end it held, if a Retirer, to
// its retire list. It is not named Release: that frees a packet.
type ReleaseFlow Endpoint

// Retirer is a flow's end that a ReleaseFlow hands back: Retire puts it on
// its retire list.
type Retirer interface{ Retire() }

// OnEvent runs the release (sim.Handler) on the endpoint's domain.
func (rl *ReleaseFlow) OnEvent(flow uint64) {
	ep := (*Endpoint)(rl)
	s, _ := ep.Flows.Get(flow)
	ep.Flows.Delete(flow)
	if r, ok := s.(Retirer); ok {
		r.Retire()
	}
}

// Idler is an endpoint a RetireList holds: Idle reports whether it may
// serve a new flow on el's scheduling domain. Each type states its own
// condition: for a sender, that its flow is Quiet; its timers disarmed; its
// pull or token entry drained; and when its list serves several hosts, that
// it lives on el's domain.
type Idler interface{ Idle(el *sim.EventList) bool }

// RetireList is the free-list of one kind of finished flow endpoint: a
// FIFO, oldest first, from which a later flow takes the head once it is
// Idle. A closed loop never lets a list drain (something is always waiting
// out its 2*MSL), so the Ring beneath gives back the front a Take frees,
// and the list holds what is waiting, never more.
//
// An entry is a flow's identity, not its buffers: a transport moves its
// endpoints' working arrays elsewhere at completion. Not safe for
// concurrent use: a list belongs to one host or one scheduling domain.
type RetireList[T Idler] struct{ ring Ring[T] }

// Push parks a finished endpoint; first is the list's first buffer, as in
// Ring.Push.
func (l *RetireList[T]) Push(x T, first int) { l.ring.Push(x, first) }

// Take pops the oldest endpoint if it is Idle on el's domain, else returns
// false: the list is FIFO, so the head is the one readiest.
func (l *RetireList[T]) Take(el *sim.EventList) (x T, ok bool) {
	if l.ring.Len() == 0 || !l.ring.Peek().Idle(el) {
		return x, false
	}
	return l.ring.Pop(), true
}

// Len returns the number of parked endpoints.
func (l *RetireList[T]) Len() int { return l.ring.Len() }

// Cap returns the number of entries the list holds without growing.
func (l *RetireList[T]) Cap() int { return l.ring.Cap() }
