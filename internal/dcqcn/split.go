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

// Fabric is what such a flow needs of the cluster it runs on (topo.Cluster).
type Fabric interface {
	Defer(from, to int, at sim.Time, h sim.Handler, arg uint64)
	MinPathDelay(src, dst int) sim.Time
	Paths(src, dst int32) int
}

// End is one side of the flow: the host, the index the cluster knows it by,
// its demux and its scheduling domain's pool.
type End struct {
	Host  *fabric.Host
	Index int
	Demux *fabric.Demux
	Pool  *Pool
}

// Split is the cross-domain part of one flow's life. It is written on the
// source's domain before Attach is emitted and read-only from then until the
// pool recycles the sender — which only a Teardown makes possible, and
// recycle panics should it ever come before At.
type Split struct {
	Net      Fabric
	Src, Dst End
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
	revs := sp.Net.Paths(sp.Dst.Host.ID, sp.Src.Host.ID)
	rc := sp.Dst.Pool.NewReceiver(sp.Dst.Host, sp.Src.Host.ID, s.Flow, int16(sp.RevPick%uint64(revs)), s.cfg)
	rc.OnData = sp.OnData
	rc.OnCompleteAt = sp.OnCompleteAt
	rc.snd = s
	s.rcv = rc
	sp.Dst.Demux.Register(s.Flow, rc)
}

// retire ends a split flow at its receiver. The fabric is lossless and the
// path fixed, so nothing addressed to this flow arrives after the FIN: the
// receiver retires immediately. The sender may still see a stale CNP until
// its deferred stop lands; after the unregister the demux drops it, and flow
// ids are never reused.
func (r *Receiver) retire() {
	s, sp := r.snd, &r.snd.split
	sp.Dst.Demux.Unregister(r.Flow)
	sp.Dst.Pool.RetireReceiver(r)
	at := r.CompletedAt + sp.Net.MinPathDelay(sp.Dst.Index, sp.Src.Index)
	sp.Net.Defer(sp.Dst.Index, sp.Src.Index, at, (*Teardown)(s), 0)
}

// Teardown is the sender's stop as a deferred command: the rate-machine
// timers otherwise tick forever.
type Teardown Sender

// OnEvent unregisters, stops and retires the sender (sim.Handler); it runs
// in the source's scheduling domain.
func (t *Teardown) OnEvent(uint64) {
	s := (*Sender)(t)
	s.split.Src.Demux.Unregister(s.Flow)
	s.Stop()
	s.split.Src.Pool.RetireSender(s)
}

// Receiver returns the receiving half of a split flow once it has attached
// (nil before). It is written on the destination's domain: read it, and
// anything behind it, only between windows.
func (s *Sender) Receiver() *Receiver { return s.rcv }
