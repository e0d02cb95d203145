package dcqcn

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// A flow whose two hosts live in different scheduling domains is built and
// torn down in three steps, each in the domain that owns the state it
// touches: the sender starts on the source's, the receiver attaches on the
// destination's the minimum path delay later (Attach), and when the FIN
// arrives the receiver retires there and sends the sender's stop back to the
// source's (Teardown). The two crossings are deferred commands, and a
// command is a value: both are sim.Handlers over the pooled Sender, which
// carries their arguments (Split), so a flow start allocates no closure.

// Split is the cross-domain part of one flow's life. It is written on the
// source's domain before Attach is emitted and read-only from then until the
// pool recycles the sender — which only a Teardown makes possible, and
// recycle panics should it ever come before At.
type Split struct {
	// Dst is the destination host; the pools are the two hosts' scheduling
	// domains'.
	Dst              *fabric.Endpoint
	SrcPool, DstPool *Pool
	// At is when the receiver attaches: before the first data packet, which
	// trails the sender's start by at least a serialization time more.
	At sim.Time
	// RevPick, a raw value drawn from the source's stream, picks the CNPs'
	// reverse route modulo the count the destination's domain enumerates.
	RevPick uint64
	// OnData and OnCompleteAt are installed on the receiver.
	OnData       func(bytes int64)
	OnCompleteAt func(at sim.Time)
}

// Attach is the receiver's construction as a deferred command.
type Attach Sender

// Attach records the flow's cross-domain arguments and returns the command
// that builds its receiver.
func (s *Sender) Attach(sp Split) *Attach {
	s.split = sp
	return (*Attach)(s)
}

// OnEvent builds and registers the receiver (sim.Handler); it runs in the
// destination's scheduling domain.
func (a *Attach) OnEvent(uint64) {
	s, sp := (*Sender)(a), &a.split
	revs := sp.Dst.Paths(s.host.ID)
	rc := sp.DstPool.NewReceiver(sp.Dst, s.host.ID, s.Flow, int16(sp.RevPick%uint64(revs)))
	rc.OnData = sp.OnData
	rc.OnCompleteAt = sp.OnCompleteAt
	rc.snd = s
	s.rcv = rc
}

// retire ends a split flow at its receiver. The fabric is lossless and the
// path fixed, so nothing addressed to this flow arrives after the FIN: the
// receiver retires immediately. The sender may still see a stale CNP until
// its deferred stop lands; after that its host frees it as a stray, and
// flow ids are never reused.
func (r *Receiver) retire() {
	s, net := r.snd, r.own.Net
	s.split.DstPool.RetireReceiver(r)
	from, to := int(r.host.ID), int(s.host.ID)
	net.Defer(from, to, r.CompletedAt+net.MinPathDelay(from, to), (*Teardown)(s), 0)
}

// Teardown is the sender's stop as a deferred command: the rate-machine
// timers otherwise tick forever.
type Teardown Sender

// OnEvent stops the sender and retires it, out of its host's table
// (sim.Handler); it runs in the source's scheduling domain.
func (t *Teardown) OnEvent(uint64) {
	s := (*Sender)(t)
	s.Stop()
	s.split.SrcPool.RetireSender(s)
}

// Receiver returns the receiving half of a split flow once it has attached
// (nil before). It is written on the destination's domain: read it, and
// anything behind it, only between windows.
func (s *Sender) Receiver() *Receiver { return s.rcv }
