// Package phost implements pHost (Gao et al., CoNEXT 2015), the
// receiver-driven transport the paper compares against in §6.2 ("Who needs
// packet trimming?"). Like NDP, pHost bursts the first RTT at line rate and
// then paces token (pull) grants from the receiver; unlike NDP it runs over
// plain drop-tail switches with per-packet ECMP spraying, so losses are
// silent: the receiver cannot distinguish "not yet arrived" from "dropped",
// and recovery falls back on sender timeouts. That difference is exactly
// what the comparison isolates.
package phost

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Config parameterizes pHost endpoints.
type Config struct {
	MTU int
	IW  int      // first-RTT burst, packets
	RTO sim.Time // loss-recovery timeout
}

// DefaultConfig mirrors the NDP comparison settings.
func DefaultConfig() Config {
	return Config{MTU: 9000, IW: 30, RTO: sim.Millisecond}
}

// Host is the per-host pHost agent: its endpoint (the table of the flows
// the host sends or receives, through which every arrival is dispatched,
// and the listen hook that opens receivers) plus the shared token pacer. A
// sender leaves the table when its state is reused, a receiver by its
// flow's release.
type Host struct {
	fabric.Endpoint
	el      *sim.EventList
	arena   *fabric.Arena
	spacing sim.Time
	cfg     Config

	onReceiverDone func(r *Receiver)

	// queue is the round-robin token queue. The pacer pops the head and
	// re-pushes the survivor on every transmitted token, the pattern that
	// makes an advance-the-slice queue reallocate on nearly every push; a
	// ring reuses the freed front.
	queue     fabric.Ring[*Receiver]
	scheduled bool
	lastSent  sim.Time
	everSent  bool

	// Free lists of completed flow state: a sender reusable 2*fabric.MSL
	// after it completed, a receiver as soon as its release put it here.
	retiredS fabric.RetireList[*Sender]
	retiredR fabric.RetireList[*Receiver]
}

// First buffers: a token queue holds one slot per receiving flow with
// tokens owed, a free-list the flows one host completes within 2*MSL.
const (
	tokenFirst   = 64
	retiredFirst = 8
)

// Init installs ph as h's pHost agent on the cluster net.
func (ph *Host) Init(h *fabric.Host, net fabric.Cluster, cfg Config) {
	if cfg.MTU == 0 {
		cfg.MTU = 9000
	}
	if cfg.IW == 0 {
		cfg.IW = 30
	}
	if cfg.RTO == 0 {
		cfg.RTO = sim.Millisecond
	}
	*ph = Host{
		el: h.EventList(), arena: fabric.AttachArena(h.EventList()),
		spacing: sim.TransmissionTime(cfg.MTU+fabric.HeaderSize, h.LinkRate()), cfg: cfg,
	}
	ph.Endpoint.Init(h, net)
}

// Listen accepts incoming pHost transfers; onComplete, when set, observes
// each receiver's completion.
func (ph *Host) Listen(onComplete func(r *Receiver)) {
	ph.onReceiverDone = onComplete
	ph.Accept = ph.listen
}

// listen opens a receiver from a data packet of a flow with none: pHost
// announces nothing, so whichever packet of a flow arrives first opens it.
func (ph *Host) listen(p *fabric.Packet) fabric.Sink {
	if p.Type != fabric.Data {
		return nil
	}
	r, ok := ph.retiredR.Take(ph.el)
	if ok {
		got := r.got
		got.Reset()
		*r = Receiver{ph: ph, got: got}
	} else {
		r = &Receiver{ph: ph}
	}
	r.Flow, r.Peer, r.total, r.OnComplete = p.Flow, p.Src, -1, ph.onReceiverDone
	ph.Flows.Put(p.Flow, r)
	return r
}

// Retire hands a receiver its flow's release took out of the table to the
// free-list (fabric.Retirer).
func (r *Receiver) Retire() { r.ph.retiredR.Push(r, retiredFirst) }

// Idle reports whether a released receiver may serve another flow
// (fabric.Idler): it is out of the token round-robin.
func (r *Receiver) Idle(*sim.EventList) bool { return !r.queued }

// Idle reports whether a retired sender may serve another flow
// (fabric.Idler): its flow is Quiet and its RTO timer disarmed.
func (s *Sender) Idle(el *sim.EventList) bool {
	return fabric.Quiet(el, s.CompletedAt) && !s.timer.Pending()
}

// Connect starts a transfer of size bytes toward the agent dst, whose
// state only the flow's release touches, on dst's domain. Packets are
// destination-routed (per-packet ECMP spraying by switches).
func (ph *Host) Connect(dst *Host, flow uint64, size int64, onDone func(s *Sender)) *Sender {
	s, ok := ph.retiredS.Take(ph.el)
	if ok {
		// A completed sender ignores the late ACKs and tokens that are
		// strays once its flow leaves the table.
		ph.Flows.Delete(s.Flow)
		timer, pkts := s.timer, s.pkts
		pkts.Reset()
		*s = Sender{
			ph: ph, peer: dst, Flow: flow, Dst: dst.Host.ID, onDone: onDone,
			timer: timer, pkts: pkts,
		}
	} else {
		s = &Sender{ph: ph, peer: dst, Flow: flow, Dst: dst.Host.ID, onDone: onDone}
		s.timer.InitHandler(ph.el, s)
	}
	mtu := int64(ph.cfg.MTU)
	s.total = (size + mtu - 1) / mtu
	if s.total == 0 {
		s.total = 1
	}
	s.lastSize = int32(size - (s.total-1)*mtu)
	if s.lastSize <= 0 {
		s.lastSize = int32(mtu)
	}
	ph.Flows.Put(flow, s)
	burst := int64(ph.cfg.IW)
	if s.total < burst {
		burst = s.total
	}
	for i := int64(0); i < burst; i++ {
		s.send(s.next, false)
		s.next++
	}
	return s
}

// Sender is the sending half of a pHost transfer.
type Sender struct {
	Flow uint64
	Dst  int32

	ph       *Host
	peer     *Host // the destination, which the flow's release runs on
	total    int64
	lastSize int32
	next     int64

	// pkts is the per-packet scoreboard from the oldest unacked packet up;
	// its base advances over the acked prefix, so a sequence number below
	// Base is an acked packet.
	pkts fabric.SeqWindow[pkt]
	nAck int64

	lastToken int64
	timer     sim.Timer // fires s.OnEvent
	complete  bool
	onDone    func(s *Sender)
	// OnCompleteAt, set by the caller once Connect returns, fires with
	// onDone for callers that need the completion time only.
	OnCompleteAt func(at sim.Time)

	PacketsSent, Rtx int64
	CompletedAt      sim.Time
}

// pkt is one packet's scoreboard entry.
type pkt struct {
	sentAt sim.Time // last transmission; -1 = never sent (0 is a valid send time)
	acked  bool
}

// grow extends the scoreboard through seq.
func (s *Sender) grow(seq int64) {
	for s.pkts.End() <= seq {
		s.pkts.Push(pkt{sentAt: -1})
	}
}

func (s *Sender) send(seq int64, rtx bool) {
	s.grow(seq)
	size := int32(s.ph.cfg.MTU)
	if seq == s.total-1 {
		size = s.lastSize
	}
	p := s.ph.arena.NewData(s.Flow, s.ph.Host.ID, s.Dst, seq, size)
	p.Sent = s.ph.el.Now()
	if seq == s.total-1 {
		p.Flags |= fabric.FlagFIN
	}
	if rtx {
		p.Flags |= fabric.FlagRTX
		s.Rtx++
	}
	s.pkts.At(seq).sentAt = s.ph.el.Now()
	s.PacketsSent++
	if !s.timer.Pending() {
		s.timer.Reset(s.ph.cfg.RTO)
	}
	s.ph.Host.Send(p)
}

// sendNext releases one token of credit: the oldest unacked timed-out
// packet is preferred; otherwise new data.
func (s *Sender) sendNext() {
	if s.next < s.total {
		s.send(s.next, false)
		s.next++
	}
	// If all data has been pushed, tokens carry no information for us:
	// losses are recovered by the RTO below.
}

// Receive handles ACKs and tokens.
func (s *Sender) Receive(p *fabric.Packet) {
	switch p.Type {
	case fabric.Ack:
		seq := p.Seq
		if seq >= 0 {
			s.grow(seq)
			if seq >= s.pkts.Base() && !s.pkts.At(seq).acked {
				s.pkts.At(seq).acked = true
				s.nAck++
				// Never past next: an entry must outlive its own send.
				for s.pkts.Base() < s.next && s.pkts.At(s.pkts.Base()).acked {
					s.pkts.Advance()
				}
			}
		}
		if s.nAck == s.total && !s.complete {
			s.complete = true
			s.CompletedAt = s.ph.el.Now()
			s.timer.Stop()
			if s.onDone != nil {
				s.onDone(s)
			}
			if s.OnCompleteAt != nil {
				s.OnCompleteAt(s.CompletedAt)
			}
			s.ph.Finish(&s.peer.Endpoint, s.Flow, s.CompletedAt)
			s.ph.retiredS.Push(s, retiredFirst)
		}
	case fabric.Pull: // token
		delta := p.PullSeq() - s.lastToken
		if delta > 0 {
			s.lastToken = p.PullSeq()
			for i := int64(0); i < delta; i++ {
				s.sendNext()
			}
		}
	}
	fabric.Free(p)
}

// OnEvent is the RTO expiry (sim.Handler): the embedded timer fires through
// it, which costs no per-flow allocation.
func (s *Sender) OnEvent(uint64) { s.onTimeout() }

// onTimeout retransmits every packet unacked for a full RTO — pHost's only
// loss-recovery mechanism.
func (s *Sender) onTimeout() {
	if s.complete {
		return
	}
	now := s.ph.el.Now()
	for seq := s.pkts.Base(); seq < s.pkts.End(); seq++ {
		if e := s.pkts.At(seq); !e.acked && e.sentAt >= 0 && e.sentAt+s.ph.cfg.RTO <= now {
			s.send(seq, true)
		}
	}
	s.timer.Reset(s.ph.cfg.RTO)
}

// Complete reports whether every packet was acked.
func (s *Sender) Complete() bool { return s.complete }

// AckedBytes approximates acknowledged payload bytes (acked packets times
// MTU) — the goodput meter for long flows.
func (s *Sender) AckedBytes() int64 { return s.nAck * int64(s.ph.cfg.MTU) }

// Receiver is the receiving half: per-packet ACKs plus paced tokens.
type Receiver struct {
	Flow uint64
	Peer int32

	ph *Host
	// got is the arrival bitmap from the first missing packet up; its base
	// advances over the received prefix, so a sequence number below Base has
	// arrived.
	got    fabric.SeqWindow[bool]
	nGot   int64
	total  int64
	bytes  int64
	tokens int64 // pending token count
	tokSeq int64

	complete   bool
	queued     bool // present in the host's token round-robin queue
	OnComplete func(r *Receiver)
}

// Receive handles data packets.
func (r *Receiver) Receive(p *fabric.Packet) {
	if p.Type != fabric.Data {
		fabric.Free(p)
		return
	}
	seq := p.Seq
	for r.got.End() <= seq {
		r.got.Push(false)
	}
	if p.Flags&fabric.FlagFIN != 0 && r.total < 0 {
		r.total = seq + 1
	}
	dup := seq < r.got.Base() || *r.got.At(seq)
	if !dup {
		*r.got.At(seq) = true
		for r.got.Base() < r.got.End() && *r.got.At(r.got.Base()) {
			r.got.Advance()
		}
		r.nGot++
		r.bytes += int64(p.DataSize)
	}
	a := r.ph.arena.NewControl(fabric.Ack, r.Flow, r.ph.Host.ID, r.Peer)
	a.Seq = seq
	r.ph.Host.Send(a)
	if r.total >= 0 && r.nGot == r.total && !r.complete {
		r.complete = true
		if r.OnComplete != nil {
			r.OnComplete(r)
		}
	} else if !dup && !r.complete {
		r.addToken()
	}
	fabric.Free(p)
}

// Bytes returns distinct payload bytes received.
func (r *Receiver) Bytes() int64 { return r.bytes }

// Complete reports whether all data arrived.
func (r *Receiver) Complete() bool { return r.complete }

func (r *Receiver) addToken() {
	if r.total >= 0 && int64(r.tokens) >= r.total-r.nGot {
		return
	}
	r.tokens++
	if r.tokens == 1 {
		r.queued = true
		r.ph.queue.Push(r, tokenFirst)
	}
	r.ph.schedule()
}

func (ph *Host) schedule() {
	if ph.scheduled || ph.queue.Len() == 0 {
		return
	}
	at := ph.el.Now()
	if ph.everSent && ph.lastSent+ph.spacing > at {
		at = ph.lastSent + ph.spacing
	}
	ph.scheduled = true
	ph.el.Schedule(at, ph, 0)
}

// OnEvent fires the token pacer (sim.Handler) — one typed event per
// transmitted token keeps the per-packet pacing allocation-free.
func (ph *Host) OnEvent(uint64) { ph.fire() }

func (ph *Host) fire() {
	ph.scheduled = false
	for ph.queue.Len() > 0 {
		r := ph.queue.Pop()
		if r.tokens <= 0 || r.complete {
			r.tokens = 0
			r.queued = false
			continue
		}
		r.tokens--
		if r.tokens > 0 {
			ph.queue.Push(r, tokenFirst)
		} else {
			r.queued = false
		}
		r.tokSeq++
		p := ph.arena.NewControl(fabric.Pull, r.Flow, ph.Host.ID, r.Peer)
		p.SetPullSeq(r.tokSeq)
		ph.lastSent = ph.el.Now()
		ph.everSent = true
		ph.Host.Send(p)
		break
	}
	ph.schedule()
}
