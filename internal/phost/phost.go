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
	MTU          int
	IW           int      // first-RTT burst, packets
	RTO          sim.Time // loss-recovery timeout
	TokenSpacing sim.Time // 0: derive from link rate
}

// DefaultConfig mirrors the NDP comparison settings.
func DefaultConfig() Config {
	return Config{MTU: 9000, IW: 30, RTO: sim.Millisecond}
}

// Host is the per-host pHost agent: demux plus the shared token pacer.
type Host struct {
	host    *fabric.Host
	el      *sim.EventList
	arena   *fabric.Arena
	demux   *fabric.Demux
	spacing sim.Time
	cfg     Config

	// queue is the round-robin token queue. The pacer pops the head and
	// re-pushes the survivor on every transmitted token, the pattern that
	// makes an advance-the-slice queue reallocate on nearly every push; a
	// ring reuses the freed front.
	queue     fabric.Ring[*Receiver]
	scheduled bool
	lastSent  sim.Time
	everSent  bool

	// Free lists of completed flow state (see internal/tcp.Pool for the
	// reuse rules): reusable 2*fabric.MSL after completion.
	retiredS fabric.Ring[*Sender]
	retiredR fabric.Ring[*Receiver]
}

// First buffers: a token queue holds one slot per receiving flow with
// tokens owed, a free-list the flows one host completes within 2*MSL.
const (
	tokenFirst   = 64
	retiredFirst = 8
)

// NewHost installs a pHost agent on a host.
func NewHost(h *fabric.Host, cfg Config) *Host {
	if cfg.MTU == 0 {
		cfg.MTU = 9000
	}
	if cfg.IW == 0 {
		cfg.IW = 30
	}
	if cfg.RTO == 0 {
		cfg.RTO = sim.Millisecond
	}
	spacing := cfg.TokenSpacing
	if spacing == 0 {
		spacing = sim.TransmissionTime(cfg.MTU+fabric.HeaderSize, h.LinkRate())
	}
	ph := &Host{
		host: h, el: h.EventList(), arena: fabric.AttachArena(h.EventList()),
		demux: fabric.NewDemux(), spacing: spacing, cfg: cfg,
	}
	h.Stack = ph.demux
	return ph
}

// Listen accepts incoming pHost transfers.
func (ph *Host) Listen(onComplete func(r *Receiver)) {
	ph.demux.Listen = func(p *fabric.Packet) fabric.Sink {
		if p.Type != fabric.Data {
			return nil
		}
		r := ph.takeReceiver()
		if r == nil {
			r = &Receiver{ph: ph}
		} else {
			got := r.got
			got.Reset()
			*r = Receiver{ph: ph, got: got}
		}
		r.Flow, r.Peer, r.total, r.OnComplete = p.Flow, p.Src, -1, onComplete
		return r
	}
}

// takeReceiver pops the oldest retired receiver if it is quiescent: out of
// the token round-robin and 2*MSL past completion. Its demux slot (the
// registration Listen created) is replaced with a tombstone that keeps
// re-ACKing late retransmissions exactly as the live completed receiver
// would, so a sender whose ACKs were dropped still recovers.
func (ph *Host) takeReceiver() *Receiver {
	r := ph.retiredR.Peek()
	if r == nil || r.queued || ph.el.Now() < r.CompletedAt+2*fabric.MSL {
		return nil
	}
	ph.retiredR.Pop()
	ph.demux.Register(r.Flow, &tombstone{ph: ph, flow: r.Flow, peer: r.Peer})
	return r
}

// takeSender pops the oldest retired sender if its RTO timer is disarmed
// and 2*MSL has passed since completion; late ACKs or tokens for the old
// flow are freed unclaimed after the demux slot is released here, which a
// completed sender would have ignored anyway.
func (ph *Host) takeSender() *Sender {
	s := ph.retiredS.Peek()
	if s == nil || s.timer.Pending() || ph.el.Now() < s.CompletedAt+2*fabric.MSL {
		return nil
	}
	ph.retiredS.Pop()
	ph.demux.Unregister(s.Flow)
	return s
}

// tombstone answers late retransmissions for a completed, recycled receiver
// with the per-packet ACK the live receiver would have sent.
type tombstone struct {
	ph   *Host
	flow uint64
	peer int32
}

// Receive mirrors a completed Receiver.Receive exactly.
func (t *tombstone) Receive(p *fabric.Packet) {
	if p.Type != fabric.Data {
		fabric.Free(p)
		return
	}
	a := t.ph.arena.NewControl(fabric.Ack, t.flow, t.ph.host.ID, t.peer)
	a.Seq = p.Seq
	t.ph.host.Send(a)
	fabric.Free(p)
}

// Connect starts a transfer of size bytes toward the destination host.
// Packets are destination-routed (per-packet ECMP spraying by switches).
func (ph *Host) Connect(dst int32, flow uint64, size int64, onDone func(s *Sender)) *Sender {
	s := ph.takeSender()
	if s == nil {
		s = &Sender{ph: ph, Flow: flow, Dst: dst, size: size, onDone: onDone}
		s.timer = sim.NewTimer(ph.el, s.onTimeout)
	} else {
		timer, pkts := s.timer, s.pkts
		pkts.Reset()
		*s = Sender{
			ph: ph, Flow: flow, Dst: dst, size: size, onDone: onDone,
			timer: timer, pkts: pkts,
		}
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
	ph.demux.Register(flow, s)
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
	size     int64
	total    int64
	lastSize int32
	next     int64

	// pkts is the per-packet scoreboard from the oldest unacked packet up;
	// its base advances over the acked prefix, so a sequence number below
	// Base is an acked packet.
	pkts fabric.SeqWindow[pkt]
	nAck int64

	lastToken int64
	timer     *sim.Timer
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
	p := s.ph.arena.NewData(s.Flow, s.ph.host.ID, s.Dst, seq, size)
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
	s.ph.host.Send(p)
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
			s.ph.retiredS.Push(s, retiredFirst)
		}
	case fabric.Pull: // token
		delta := p.PullSeq - s.lastToken
		if delta > 0 {
			s.lastToken = p.PullSeq
			for i := int64(0); i < delta; i++ {
				s.sendNext()
			}
		}
	}
	fabric.Free(p)
}

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

	complete    bool
	queued      bool // present in the host's token round-robin queue
	CompletedAt sim.Time
	OnComplete  func(r *Receiver)
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
	a := r.ph.arena.NewControl(fabric.Ack, r.Flow, r.ph.host.ID, r.Peer)
	a.Seq = seq
	r.ph.host.Send(a)
	if r.total >= 0 && r.nGot == r.total && !r.complete {
		r.complete = true
		r.CompletedAt = r.ph.el.Now()
		if r.OnComplete != nil {
			r.OnComplete(r)
		}
		r.ph.retiredR.Push(r, retiredFirst)
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
		p := ph.arena.NewControl(fabric.Pull, r.Flow, ph.host.ID, r.Peer)
		p.PullSeq = r.tokSeq
		ph.lastSent = ph.el.Now()
		ph.everSent = true
		ph.host.Send(p)
		break
	}
	ph.schedule()
}
