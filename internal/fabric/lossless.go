package fabric

import "ndp/internal/sim"

// Lossless Ethernet (IEEE 802.1Qbb priority flow control) support.
//
// In lossless mode a switch gates admission from each input link through an
// ingress queue. A packet moves from ingress to its egress queue only while
// the egress holds fewer than the configured byte budget; otherwise it waits
// at the ingress, head-of-line blocking everything behind it — including
// packets bound for uncongested egresses. When an ingress backlog crosses
// Xoff, a PAUSE is signalled to the upstream transmitter (one link
// propagation delay later); it resumes below Xon. This reproduces exactly
// the collateral-damage and pause-cascade behaviour §2.3 and §6.1 of the
// paper attribute to PFC, which DCQCN rides on.

type heldEntry struct {
	p   *Packet
	out int
}

// heldFirst is an ingress backlog's first buffer: PAUSE goes out at Xoff
// (two packets by default), so what is held is what was already on the wire
// when it took effect.
const heldFirst = 8

type losslessState struct {
	limit     int // egress byte budget before ingress must hold
	xoff, xon int
	ingresses []*IngressQueue
}

// EnableLossless puts the switch in PFC mode. limit is the per-egress byte
// budget; xoff/xon are the ingress backlog watermarks (bytes) for pausing
// and resuming the upstream transmitter.
func (s *Switch) EnableLossless(limit, xoff, xon int) {
	s.lossless = &losslessState{limit: limit, xoff: xoff, xon: xon}
	for _, p := range s.Ports {
		p.OnDequeue = s.drainHeld
		p.onDemand = false
	}
}

// Lossless reports whether PFC mode is enabled.
func (s *Switch) Lossless() bool { return s.lossless != nil }

// NewIngress creates the ingress queue for one input link and connects the
// upstream transmitter to it. Must be called after EnableLossless.
func (s *Switch) NewIngress(upstream *Port) *IngressQueue {
	iq := &IngressQueue{sw: s, upstream: upstream}
	s.lossless.ingresses = append(s.lossless.ingresses, iq)
	upstream.Connect(iq)
	return iq
}

func (s *Switch) canAccept(out int, p *Packet) bool {
	return s.Ports[out].Q.Bytes()+int(p.Size) <= s.lossless.limit
}

// drainHeld moves held ingress packets to egress queues as space appears.
// It loops until a full pass makes no progress, so one freed slot can unblock
// a chain of ingresses.
func (s *Switch) drainHeld() {
	ls := s.lossless
	for {
		progress := false
		for _, iq := range ls.ingresses {
			for {
				e := iq.held.Peek()
				if e.p == nil || !s.canAccept(e.out, e.p) {
					break
				}
				iq.popForward()
				progress = true
			}
		}
		if !progress {
			return
		}
	}
}

// IngressQueue is the receiving end of one link at a PFC switch.
type IngressQueue struct {
	sw       *Switch
	upstream *Port

	// Cross, when non-nil, is the mailbox toward the upstream
	// transmitter's shard: the upstream port lives on the other side of a
	// shard cut, so pause/resume transitions travel as keyed cross-shard
	// entries instead of locally scheduled events. The topology layer
	// registers the reverse channel with noteCrossLink, so the link delay
	// the signal travels is itself part of the pair lookahead.
	Cross *CrossBox

	held  Ring[heldEntry]
	bytes int

	pausedUpstream bool
	pfcSeq         uint64 // emission counter for canonical PFC ord keys
	PauseEvents    int64  // number of XOFF transitions signalled
}

// Receive routes the packet; if its egress is at budget, the packet is held
// and may trigger PAUSE.
func (iq *IngressQueue) Receive(p *Packet) {
	out := iq.sw.Route(iq.sw, p)
	if out < 0 || out >= len(iq.sw.Ports) {
		iq.sw.RouteDrops++
		Free(p)
		return
	}
	if iq.held.Len() == 0 && iq.sw.canAccept(out, p) {
		iq.sw.Ports[out].Enqueue(p)
		return
	}
	iq.held.Push(heldEntry{p: p, out: out}, heldFirst)
	iq.bytes += int(p.Size)
	iq.updatePause()
}

func (iq *IngressQueue) popForward() {
	e := iq.held.Pop()
	iq.bytes -= int(e.p.Size)
	iq.sw.Ports[e.out].Enqueue(e.p)
	iq.updatePause()
}

// Backlog returns the bytes currently held at this ingress.
func (iq *IngressQueue) Backlog() int { return iq.bytes }

// releasePackets releases the held backlog at teardown.
func (iq *IngressQueue) releasePackets() {
	for iq.held.Len() > 0 {
		Release(iq.held.Pop().p)
	}
	iq.bytes = 0
}

// signal emits one PFC transition toward the upstream transmitter: an event
// of the upstream Port itself, one link propagation delay after the
// watermark crossing, through the mailbox when the port lives on another
// shard. It is keyed on (upstream port uid, ingress emission seq) so pause
// application order at equal timestamps is canonical — independent of
// scheduling history and of which side of a shard boundary the transition
// crossed. Resume can never overtake pause: both travel the same fixed
// delay and the seq strictly increases.
func (iq *IngressQueue) signal(pause bool) {
	at := iq.sw.el.Now() + iq.upstream.Delay
	iq.pfcSeq++
	ord := sim.PFCOrd(iq.upstream.UID, iq.pfcSeq)
	kind := uint64(portResume)
	if pause {
		kind = portPause
	}
	if iq.Cross != nil {
		iq.Cross.AddCommand(at, ord, iq.upstream, kind)
		return
	}
	iq.sw.el.ScheduleKeyed(at, ord, iq.upstream, kind)
}

func (iq *IngressQueue) updatePause() {
	ls := iq.sw.lossless
	if !iq.pausedUpstream && iq.bytes > ls.xoff {
		iq.pausedUpstream = true
		iq.PauseEvents++
		iq.signal(true)
	} else if iq.pausedUpstream && iq.bytes <= ls.xon {
		iq.pausedUpstream = false
		iq.signal(false)
	}
}
