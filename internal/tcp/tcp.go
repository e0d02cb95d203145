// Package tcp implements a packet-granularity TCP NewReno suitable for
// datacenter simulation: slow start, congestion avoidance, fast
// retransmit/recovery, RTO with exponential backoff and Karn's rule, an
// optional three-way handshake (disable it to model TCP Fast Open), and the
// DCTCP ECN extension (fractional window reduction driven by the marked
// fraction, Alizadeh et al.). MPTCP subflows (internal/mptcp) are built from
// the same Sender with a shared data source and a pluggable increase rule.
//
// Sequence numbers count MSS-sized packets rather than bytes — the standard
// simplification of packet-level simulators (htsim does the same) that
// preserves window dynamics exactly while keeping state small.
package tcp

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Config parameterizes a TCP flow.
type Config struct {
	// MSS is the segment (and wire packet) size in bytes.
	MSS int
	// InitialCwnd in packets (RFC 6928-style 10 by default).
	InitialCwnd float64
	// MaxCwnd caps the window (receive window stand-in).
	MaxCwnd float64
	// MinRTO is the lower bound on the retransmission timeout. Linux
	// defaults to 200ms; datacenter-tuned stacks use far less.
	MinRTO sim.Time
	// Handshake, when true, runs SYN/SYN-ACK before data (one extra RTT).
	// False models TCP Fast Open / an already-open connection.
	Handshake bool
	// DCTCP enables ECN-fraction congestion control with gain G.
	DCTCP bool
	// G is the DCTCP alpha EWMA gain (default 1/16).
	G float64
}

// DefaultConfig returns a plain-TCP configuration with a Linux-like MinRTO.
func DefaultConfig() Config {
	return Config{
		MSS:         9000,
		InitialCwnd: 10,
		MaxCwnd:     1000,
		MinRTO:      200 * sim.Millisecond,
		Handshake:   true,
		G:           1.0 / 16,
	}
}

func (c Config) withDefaults() Config {
	if c.MSS == 0 {
		c.MSS = 9000
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 10
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 1000
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * sim.Millisecond
	}
	if c.G == 0 {
		c.G = 1.0 / 16
	}
	return c
}

// DataSource hands out stream data one MSS at a time; shared sources let
// MPTCP subflows pull from one logical stream.
type DataSource interface {
	// Claim reserves one packet of stream data. It returns the payload
	// size in bytes, or 0 when the stream is exhausted.
	Claim() int
	// Exhausted reports whether no data remains to claim.
	Exhausted() bool
}

// FixedSource is a DataSource of a given total byte length.
type FixedSource struct {
	Remaining int64
	mss       int64
}

// NewFixedSource returns a source of size bytes cut into mss-sized claims.
func NewFixedSource(size int64, mss int) *FixedSource {
	return &FixedSource{Remaining: size, mss: int64(mss)}
}

// Claim implements DataSource.
func (f *FixedSource) Claim() int {
	if f.Remaining <= 0 {
		return 0
	}
	n := f.mss
	if f.Remaining < n {
		n = f.Remaining
	}
	f.Remaining -= n
	return int(n)
}

// Exhausted implements DataSource.
func (f *FixedSource) Exhausted() bool { return f.Remaining <= 0 }

// IncreaseFunc lets MPTCP replace the per-ACK congestion-avoidance growth;
// it receives the sender and must return the cwnd increment (in packets)
// for one newly-acked packet during congestion avoidance.
type IncreaseFunc func(s *Sender) float64

// Sender is one TCP connection's sending side.
type Sender struct {
	Flow  uint64
	cfg   Config
	el    *sim.EventList
	host  *fabric.Host
	dst   int32
	path  []int16 // fixed source route (per-flow "ECMP" path)
	arena *fabric.Arena

	// Pool plumbing (nil for unpooled senders): the pool the sender returns
	// to at completion, the demux it is registered on (unregistered when the
	// pool hands the state to a new flow), and whether retirement is
	// automatic or group-managed (MPTCP couples subflows via LIA, so no
	// subflow may be reused while a sibling still reads its window).
	pool       *Pool
	demux      *fabric.Demux
	groupOwned bool

	source DataSource
	// fixed is the stream of a pooled single-path flow (Pool.NewSender);
	// source points at it.
	fixed FixedSource

	// Sequence state, in packets. segs holds every claimed segment from
	// min(sndUna, sndNxt) up: its base follows the cumulative ACK, its End
	// is the number of segments claimed from the source so far.
	sndNxt, sndUna int64
	segs           fabric.SeqWindow[segment]

	cwnd, ssthresh float64
	dupacks        int
	inRecovery     bool
	recover        int64

	srtt, rttvar sim.Time
	rto          sim.Time
	backoff      int
	timer        sim.Timer // fires s.OnEvent

	// DCTCP state.
	alpha               float64
	ackedWin, markedWin int64
	obsEnd              int64
	increase            IncreaseFunc
	handshakeDone       bool
	complete            bool
	OnComplete          func(s *Sender)

	// attach is the receiver half's construction, carried by the sender
	// half so that delivering it costs nothing; see Attach.
	attach ReceiverAttach

	// Telemetry.
	PacketsSent, Rtx, Timeouts int64
	AckedPackets               int64
	AckedBytes                 int64
	CompletedAt                sim.Time
	SynSentAt                  sim.Time
}

// segment is one claimed packet's bookkeeping.
type segment struct {
	size  int32 // payload bytes
	rtxed bool  // Karn: retransmitted at least once
}

// NewSender builds a TCP sender. path is the fixed source route to the
// destination (nil for destination-based ECMP routing); source supplies the
// stream. Pool calls it only on a miss: recycle reuses the state.
func NewSender(host *fabric.Host, dst int32, flow uint64, path []int16, source DataSource, cfg Config) *Sender {
	cfg = cfg.withDefaults()
	s := &Sender{
		Flow:     flow,
		cfg:      cfg,
		el:       host.EventList(),
		host:     host,
		dst:      dst,
		path:     path,
		arena:    fabric.AttachArena(host.EventList()),
		source:   source,
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.MaxCwnd,
		rto:      cfg.MinRTO,
	}
	s.timer.InitHandler(s.el, s)
	return s
}

// recycle resets a retired sender for a new connection, keeping the
// identity-bound resources: the event list, the timer (its handler is this
// object), the arena, and the emptied segment window's buffer.
func (s *Sender) recycle(host *fabric.Host, dst int32, flow uint64, path []int16, source DataSource, cfg Config) {
	if s.attach.Host != nil && s.el.Now() <= s.attach.At {
		panic("tcp: sender recycled before its deferred receiver attach ran")
	}
	cfg = cfg.withDefaults()
	el, timer, pool, arena := s.el, s.timer, s.pool, s.arena
	segs := s.segs
	segs.Reset()
	*s = Sender{
		Flow: flow, cfg: cfg, el: el, host: host, dst: dst, path: path,
		arena: arena, pool: pool, source: source,
		cwnd: cfg.InitialCwnd, ssthresh: cfg.MaxCwnd, rto: cfg.MinRTO,
		timer: timer, segs: segs,
	}
}

// Routes enumerates the source routes between two hosts (topo.Cluster).
type Routes interface {
	Paths(src, dst int32) [][]int16
}

// ReceiverAttach is what the destination's scheduling domain needs to build
// the receiving half of a flow whose sender was built on the source's.
type ReceiverAttach struct {
	// At is when the attach runs: before the flow's first packet can arrive.
	At sim.Time
	// Host, Demux and Pool are the destination host, its demux and its
	// scheduling domain's pool.
	Host  *fabric.Host
	Demux *fabric.Demux
	Pool  *Pool
	// Routes enumerates the reverse routes — on the destination's domain,
	// whose route cache it is — and RevPick, a raw value drawn from the
	// source's stream, picks one of them modulo their count.
	Routes  Routes
	RevPick uint64
	// OnData and OnCompleteAt are installed on the receiver.
	OnData       func(n int64)
	OnCompleteAt func(at sim.Time)
}

// Attach is a flow's receiver-side construction as a deferred command: a
// sim.Handler over the sender half itself, so that sending it to the
// destination's scheduling domain (topo.Cluster.Defer) allocates nothing.
// The record is written on the source's domain before the command is
// emitted, read once on the destination's at ReceiverAttach.At, and not
// rewritten until the pool recycles the sender, 2*MSL after the flow
// completed; recycle panics if that ever fails to hold.
type Attach Sender

// Attach records the receiver half's construction and returns the command
// that performs it.
func (s *Sender) Attach(a ReceiverAttach) *Attach {
	s.attach = a
	return (*Attach)(s)
}

// OnEvent builds and registers the receiver (sim.Handler); it runs in the
// destination's scheduling domain.
func (a *Attach) OnEvent(uint64) {
	at := &a.attach
	revs := at.Routes.Paths(at.Host.ID, a.host.ID)
	rcv := at.Pool.NewReceiver(at.Host, at.Demux, a.host.ID, a.Flow, revs[at.RevPick%uint64(len(revs))])
	rcv.OnData = at.OnData
	rcv.OnCompleteAt = at.OnCompleteAt
}

// SetIncrease overrides congestion-avoidance growth (MPTCP's LIA).
func (s *Sender) SetIncrease(f IncreaseFunc) { s.increase = f }

// Host returns the host this sender transmits from.
func (s *Sender) Host() *fabric.Host { return s.host }

// Cwnd returns the current congestion window in packets.
func (s *Sender) Cwnd() float64 { return s.cwnd }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (s *Sender) SRTT() sim.Time { return s.srtt }

// Start begins the connection: handshake if configured, else data at once.
func (s *Sender) Start() {
	if s.cfg.Handshake {
		s.sendSyn()
		return
	}
	s.handshakeDone = true
	s.trySend()
}

func (s *Sender) sendSyn() {

	s.SynSentAt = s.el.Now()
	p := s.arena.Get()
	p.Type = fabric.Data
	p.Flags = fabric.FlagSYN
	p.Flow = s.Flow
	p.Src = s.host.ID
	p.Dst = s.dst
	p.Seq = -1
	p.Size = fabric.HeaderSize
	p.Sent = s.el.Now()
	p.Path = s.path
	s.host.Send(p)
	s.timer.Reset(s.rto)
}

// trySend transmits new packets while the window allows.
func (s *Sender) trySend() {
	if !s.handshakeDone || s.complete {
		return
	}
	for float64(s.sndNxt-s.sndUna) < s.cwnd {
		if !s.sendNew() {
			break
		}
	}
}

// sendNew transmits the segment at sndNxt, claiming it from the source
// first unless it was claimed before (an RTO rewinds sndNxt below the
// window's End). It reports false when the source has nothing left.
func (s *Sender) sendNew() bool {
	if s.sndNxt >= s.segs.End() {
		n := s.source.Claim()
		if n == 0 {
			return false
		}
		s.segs.Push(segment{size: int32(n)})
	}
	s.transmit(s.sndNxt, false)
	s.sndNxt++
	return true
}

func (s *Sender) transmit(seq int64, rtx bool) {
	seg := s.segs.At(seq)
	p := s.arena.NewData(s.Flow, s.host.ID, s.dst, seq, seg.size)
	p.Path = s.path
	p.Sent = s.el.Now()
	if rtx {
		p.Flags |= fabric.FlagRTX
		seg.rtxed = true
		s.Rtx++
	}
	if s.source.Exhausted() && seq == s.segs.End()-1 {
		p.Flags |= fabric.FlagFIN
	}
	s.PacketsSent++
	if !s.timer.Pending() {
		s.timer.Reset(s.rto)
	}
	s.host.Send(p)
}

// Receive handles ACKs (including the SYN-ACK).
func (s *Sender) Receive(p *fabric.Packet) {
	if p.Type != fabric.Ack {
		fabric.Free(p)
		return
	}
	if p.Flags&fabric.FlagSYN != 0 { // SYN-ACK
		if !s.handshakeDone {
			s.handshakeDone = true
			s.sampleRTT(s.el.Now() - s.SynSentAt)
			s.timer.Stop()
			s.trySend()
		}
		fabric.Free(p)
		return
	}
	s.onAck(p)
	fabric.Free(p)
}

func (s *Sender) sampleRTT(rtt sim.Time) {
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		d := s.srtt - rtt
		if d < 0 {
			d = -d
		}
		s.rttvar = (3*s.rttvar + d) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < s.cfg.MinRTO {
		s.rto = s.cfg.MinRTO
	}
}

func (s *Sender) onAck(p *fabric.Packet) {
	ack := p.AckNo
	if s.cfg.DCTCP {
		s.ackedWin++
		if p.Flags&fabric.FlagECNEcho != 0 {
			s.markedWin++
		}
		if ack >= s.obsEnd {
			s.dctcpWindowEnd()
		}
	}
	switch {
	case ack > s.sndUna:
		s.onNewAck(p, ack)
	case ack == s.sndUna && s.sndNxt > s.sndUna:
		s.onDupAck()
	}
	s.trySend()
}

func (s *Sender) onNewAck(p *fabric.Packet, ack int64) {
	newly := ack - s.sndUna
	for seq := s.sndUna; seq < ack && seq < s.segs.End(); seq++ {
		s.AckedBytes += int64(s.segs.At(seq).size)
	}
	s.AckedPackets += newly
	// Karn: only un-retransmitted segments yield RTT samples.
	if last := ack - 1; last < s.segs.End() && !s.segs.At(last).rtxed && p.TSEcho > 0 {
		s.sampleRTT(s.el.Now() - p.TSEcho)
	}
	s.sndUna = ack
	// Segments below both sndUna and sndNxt are done with. sndNxt counts:
	// an RTO rewinds it to sndUna, a cumulative ACK for what was in flight
	// before the RTO can then pass it, and trySend still walks sndNxt up
	// through those segments one transmission at a time.
	for b := s.segs.Base(); b < s.sndUna && b < s.sndNxt && b < s.segs.End(); b++ {
		s.segs.Advance()
	}
	s.backoff = 0
	if s.inRecovery {
		if ack >= s.recover {
			// Full acknowledgment: everything outstanding at loss time
			// has arrived; deflate and leave recovery.
			s.inRecovery = false
			s.cwnd = s.ssthresh
			s.dupacks = 0
		} else {
			// Partial ACK: next hole is lost too (NewReno).
			s.transmit(s.sndUna, true)
		}
	} else {
		s.dupacks = 0
		for i := int64(0); i < newly; i++ {
			s.growCwnd()
		}
	}
	if s.sndUna >= s.sndNxt {
		s.timer.Stop()
		if s.source.Exhausted() && s.sndUna == s.segs.End() && !s.complete {
			s.complete = true
			s.CompletedAt = s.el.Now()
			if s.OnComplete != nil {
				s.OnComplete(s)
			}
			if s.pool != nil && !s.groupOwned {
				s.pool.retireSender(s)
			}
		}
	} else {
		s.timer.Reset(s.rto)
	}
}

func (s *Sender) growCwnd() {
	if s.cwnd >= s.cfg.MaxCwnd {
		return
	}
	if s.cwnd < s.ssthresh {
		s.cwnd++
	} else if s.increase != nil {
		s.cwnd += s.increase(s)
	} else {
		s.cwnd += 1 / s.cwnd
	}
	if s.cwnd > s.cfg.MaxCwnd {
		s.cwnd = s.cfg.MaxCwnd
	}
}

func (s *Sender) onDupAck() {
	s.dupacks++
	if s.inRecovery {
		s.cwnd++ // inflation
		return
	}
	if s.dupacks < 3 {
		// Limited transmit (RFC 3042): send one new segment per early
		// dupack so short flows generate enough dupacks to trigger fast
		// retransmit instead of stalling until the RTO.
		s.sendNew()
		return
	}
	if s.dupacks == 3 {
		s.inRecovery = true
		s.recover = s.sndNxt
		s.ssthresh = s.cwnd / 2
		if s.ssthresh < 2 {
			s.ssthresh = 2
		}
		s.cwnd = s.ssthresh + 3
		s.transmit(s.sndUna, true)
	}
}

// dctcpWindowEnd closes one observation window: update alpha from the
// marked fraction and apply the proportional reduction if anything was
// marked (DCTCP's once-per-RTT cut).
func (s *Sender) dctcpWindowEnd() {
	if s.ackedWin > 0 {
		f := float64(s.markedWin) / float64(s.ackedWin)
		s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G*f
		if s.markedWin > 0 && !s.inRecovery {
			s.cwnd = s.cwnd * (1 - s.alpha/2)
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			s.ssthresh = s.cwnd
		}
	}
	s.ackedWin, s.markedWin = 0, 0
	s.obsEnd = s.sndNxt
}

// Alpha returns the DCTCP congestion estimate.
func (s *Sender) Alpha() float64 { return s.alpha }

// OnEvent is the RTO expiry (sim.Handler): the embedded timer fires through
// it, which costs no per-flow allocation.
func (s *Sender) OnEvent(uint64) { s.onTimeout() }

func (s *Sender) onTimeout() {
	if s.complete {
		return
	}
	s.Timeouts++
	if !s.handshakeDone {
		s.backoffRTO()
		s.sendSyn()
		return
	}
	if s.sndUna >= s.sndNxt {
		return
	}
	s.ssthresh = s.cwnd / 2
	if s.ssthresh < 2 {
		s.ssthresh = 2
	}
	s.cwnd = 1
	s.dupacks = 0
	s.inRecovery = false
	s.backoffRTO()
	// Go-back-N: everything past the hole is resent in slow start as the
	// window reopens (classic post-RTO behaviour; without this each hole
	// would cost its own RTO).
	s.sndNxt = s.sndUna
	s.transmit(s.sndNxt, true)
	s.sndNxt++
	s.timer.Reset(s.rto)
}

func (s *Sender) backoffRTO() {
	if s.backoff < 6 {
		s.backoff++
	}
	s.rto = s.cfg.MinRTO << uint(s.backoff)
	if base := s.srtt + 4*s.rttvar; base > s.cfg.MinRTO {
		s.rto = base << uint(s.backoff)
	}
}

// Complete reports whether the whole stream has been acked.
func (s *Sender) Complete() bool { return s.complete }

// Receiver is one TCP connection's receiving side: cumulative ACK per data
// packet, per-packet ECN echo, SYN-ACK generation.
type Receiver struct {
	Flow  uint64
	host  *fabric.Host
	peer  int32
	path  []int16 // fixed reverse route for ACKs
	arena *fabric.Arena

	// Pool plumbing (nil for unpooled receivers); see Sender.
	pool  *Pool
	demux *fabric.Demux

	// got is the arrival bitmap above the cumulative ACK: its base advances
	// over the received prefix, so Base is the next sequence number expected.
	got    fabric.SeqWindow[bool]
	finSeq int64

	Bytes        int64
	complete     bool
	CompletedAt  sim.Time
	FirstArrival sim.Time
	seenAny      bool
	// OnData observes every newly received payload byte count (MPTCP
	// aggregates across subflows); OnComplete fires when the stream is
	// fully received (FIN seen and no holes), OnCompleteAt with it for
	// callers that need the completion time only.
	OnData       func(n int64)
	OnComplete   func(r *Receiver)
	OnCompleteAt func(at sim.Time)
}

// NewReceiver builds the receiving side; path routes ACKs back. Pool calls
// it only on a miss.
func NewReceiver(host *fabric.Host, peer int32, flow uint64, path []int16) *Receiver {
	return &Receiver{
		Flow: flow, host: host, peer: peer, path: path, finSeq: -1,
		arena: fabric.AttachArena(host.EventList()),
	}
}

// recycle resets a retired receiver for a new connection, keeping the arena
// and the emptied arrival bitmap's buffer.
func (r *Receiver) recycle(host *fabric.Host, peer int32, flow uint64, path []int16) {
	pool, arena, got := r.pool, r.arena, r.got
	got.Reset()
	*r = Receiver{
		Flow: flow, host: host, peer: peer, path: path, finSeq: -1,
		arena: arena, pool: pool, got: got,
	}
}

// Receive handles data and SYN packets.
func (r *Receiver) Receive(p *fabric.Packet) {
	if p.Type != fabric.Data {
		fabric.Free(p)
		return
	}
	if !r.seenAny && p.Seq >= 0 {
		r.seenAny = true
		r.FirstArrival = r.host.EventList().Now()
	}
	if p.Flags&fabric.FlagSYN != 0 && p.Seq < 0 {
		// SYN: reply SYN-ACK.
		a := r.arena.NewControl(fabric.Ack, r.Flow, r.host.ID, r.peer)
		a.Flags |= fabric.FlagSYN
		a.AckNo = 0
		a.Path = r.path
		r.host.Send(a)
		fabric.Free(p)
		return
	}
	seq := p.Seq
	for r.got.End() <= seq {
		r.got.Push(false)
	}
	if seq >= r.got.Base() && !*r.got.At(seq) {
		*r.got.At(seq) = true
		r.Bytes += int64(p.DataSize)
		if r.OnData != nil {
			r.OnData(int64(p.DataSize))
		}
	}
	if p.Flags&fabric.FlagFIN != 0 {
		r.finSeq = seq
	}
	for r.got.Base() < r.got.End() && *r.got.At(r.got.Base()) {
		r.got.Advance()
	}
	cumAck := r.got.Base()
	a := r.arena.NewControl(fabric.Ack, r.Flow, r.host.ID, r.peer)
	a.AckNo = cumAck
	a.TSEcho = p.Sent
	if p.Flags&fabric.FlagCE != 0 {
		a.Flags |= fabric.FlagECNEcho
	}
	a.Path = r.path
	r.host.Send(a)
	if r.finSeq >= 0 && cumAck == r.finSeq+1 && !r.complete {
		r.complete = true
		r.CompletedAt = r.host.EventList().Now()
		if r.OnComplete != nil {
			r.OnComplete(r)
		}
		if r.OnCompleteAt != nil {
			r.OnCompleteAt(r.CompletedAt)
		}
		if r.pool != nil {
			r.pool.retireReceiver(r)
		}
	}
	fabric.Free(p)
}

// Complete reports whether the stream is fully received.
func (r *Receiver) Complete() bool { return r.complete }
