// Package dcqcn implements the DCQCN baseline (Zhu et al., SIGCOMM 2015):
// rate-based congestion control for RoCEv2 over lossless (PFC) Ethernet.
// Switches run ECN marking on top of PFC ingress gating (fabric's lossless
// mode); receivers return CNPs for marked traffic at most once per interval;
// senders apply multiplicative decrease on CNP and recover through the
// fast-recovery / additive-increase stages of the DCQCN rate machine.
//
// Because PFC makes the fabric lossless, there are no retransmissions: a
// transfer completes when all bytes arrive. What DCQCN pays instead is
// pause-frame collateral damage, which Figure 19 measures.
package dcqcn

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Config carries the DCQCN rate-machine parameters (defaults follow the
// DCQCN paper's recommended values).
type Config struct {
	MTU      int
	LineRate int64 // bps; also the starting rate
	MinRate  int64 // floor for the sending rate (default 10Mb/s)

	Rai         int64    // additive increase step (default 40Mb/s)
	G           float64  // alpha gain (default 1/256)
	AlphaTimer  sim.Time // alpha decay interval without CNPs (55us)
	IncTimer    sim.Time // rate-increase timer period (55us)
	IncBytes    int64    // rate-increase byte counter period (10MB)
	F           int      // fast-recovery stages before additive increase (5)
	CNPInterval sim.Time // min gap between CNPs per flow (50us)
}

// DefaultConfig returns the paper-recommended parameters for a 10Gb/s
// fabric.
func DefaultConfig() Config {
	return Config{
		MTU:         9000,
		LineRate:    10e9,
		MinRate:     10e6,
		Rai:         40e6,
		G:           1.0 / 256,
		AlphaTimer:  55 * sim.Microsecond,
		IncTimer:    55 * sim.Microsecond,
		IncBytes:    10 << 20,
		F:           5,
		CNPInterval: 50 * sim.Microsecond,
	}
}

// MarkThresholdPackets is the ECN threshold the paper recommends for DCQCN.
const MarkThresholdPackets = 20

// QueueFactory returns the DCQCN switch egress queue: ECN marking with no
// drop bound (PFC ingress gating prevents overflow).
func QueueFactory(mtu int) func(name string) fabric.Queue {
	return func(string) fabric.Queue {
		return fabric.NewECNQueue(0 /* lossless: never drop */, MarkThresholdPackets*mtu)
	}
}

// Sender transmits a stream at a paced rate governed by the DCQCN rate
// machine over a fixed path.
type Sender struct {
	Flow uint64

	cfg   Config
	el    *sim.EventList
	host  *fabric.Host
	arena *fabric.Arena
	dst   int32
	path  []int16

	size int64 // bytes; <0 unbounded
	sent int64 // bytes handed to the NIC
	seq  int64

	rc, rt    float64 // current / target rate (bps)
	alpha     float64
	timerSt   int // rate-increase stages since last CNP
	byteSt    int
	bytesCntr int64

	sending    bool
	stopped    bool
	alphaTimer *sim.Timer
	incTimer   *sim.Timer

	// split carries the arguments of the flow's deferred commands and rcv
	// the receiver its Attach built (split.go); both zero for a flow built
	// in one domain.
	split Split
	rcv   *Receiver

	// Telemetry.
	CNPs        int64
	PacketsSent int64
}

// NewSender builds a DCQCN sender; call Start to begin transmitting. Pool
// calls it only on a miss: recycle reuses the state and its bound timers.
func NewSender(host *fabric.Host, dst int32, flow uint64, path []int16, size int64, cfg Config) *Sender {
	s := &Sender{
		Flow: flow, cfg: cfg, el: host.EventList(), host: host, dst: dst,
		arena: fabric.AttachArena(host.EventList()),
		path:  path, size: size,
		rc: float64(cfg.LineRate), rt: float64(cfg.LineRate), alpha: 1,
	}
	s.alphaTimer = sim.NewTimer(s.el, s.onAlphaTimer)
	s.incTimer = sim.NewTimer(s.el, s.onIncTimer)
	return s
}

// recycle resets a retired sender for a new transfer, keeping the event
// list, the two rate-machine timers (their closures point at this object)
// and the arena.
func (s *Sender) recycle(host *fabric.Host, dst int32, flow uint64, path []int16, size int64, cfg Config) {
	if s.split.Net != nil && s.el.Now() <= s.split.At {
		panic("dcqcn: sender recycled before its deferred receiver attach ran")
	}
	el, arena, at, it := s.el, s.arena, s.alphaTimer, s.incTimer
	*s = Sender{
		Flow: flow, cfg: cfg, el: el, host: host, dst: dst, arena: arena,
		path: path, size: size,
		rc: float64(cfg.LineRate), rt: float64(cfg.LineRate), alpha: 1,
		alphaTimer: at, incTimer: it,
	}
}

// Start begins paced transmission at line rate (RoCE does not probe).
func (s *Sender) Start() {
	s.alphaTimer.Reset(s.cfg.AlphaTimer)
	s.incTimer.Reset(s.cfg.IncTimer)
	s.sendLoop()
}

func (s *Sender) sendLoop() {
	if s.sending || s.stopped {
		return
	}
	if s.size >= 0 && s.sent >= s.size {
		return
	}
	s.sending = true
	n := int64(s.cfg.MTU)
	if s.size >= 0 && s.size-s.sent < n {
		n = s.size - s.sent
	}
	p := s.arena.NewData(s.Flow, s.host.ID, s.dst, s.seq, int32(n))
	p.Path = s.path
	p.Sent = s.el.Now()
	s.seq++
	s.sent += n
	if s.size >= 0 && s.sent >= s.size {
		p.Flags |= fabric.FlagFIN
	}
	s.PacketsSent++
	s.bytesCntr += n
	s.host.Send(p)

	rate := s.rc
	if rate < float64(s.cfg.MinRate) {
		rate = float64(s.cfg.MinRate)
	}
	gap := sim.TransmissionTime(int(n), int64(rate))
	s.el.ScheduleAfter(gap, s, 0)
}

// OnEvent is the inter-packet pacing gap elapsing (sim.Handler): scheduled
// once per transmitted packet, so the typed path keeps DCQCN's rate pacing
// allocation-free.
func (s *Sender) OnEvent(uint64) {
	s.sending = false
	if s.bytesCntr >= s.cfg.IncBytes {
		s.bytesCntr = 0
		s.byteSt++
		s.raiseRate()
	}
	s.sendLoop()
}

// Receive handles CNPs from the receiver.
func (s *Sender) Receive(p *fabric.Packet) {
	if p.Type == fabric.CNP {
		s.onCNP()
	}
	fabric.Free(p)
}

// onCNP applies DCQCN's multiplicative decrease and resets the recovery
// stages.
func (s *Sender) onCNP() {
	s.CNPs++
	s.rt = s.rc
	s.rc = s.rc * (1 - s.alpha/2)
	if s.rc < float64(s.cfg.MinRate) {
		s.rc = float64(s.cfg.MinRate)
	}
	s.alpha = (1-s.cfg.G)*s.alpha + s.cfg.G
	s.timerSt, s.byteSt = 0, 0
	s.bytesCntr = 0
	s.alphaTimer.Reset(s.cfg.AlphaTimer)
	s.incTimer.Reset(s.cfg.IncTimer)
}

func (s *Sender) onAlphaTimer() {
	s.alpha = (1 - s.cfg.G) * s.alpha
	s.alphaTimer.Reset(s.cfg.AlphaTimer)
}

func (s *Sender) onIncTimer() {
	s.timerSt++
	s.raiseRate()
	s.incTimer.Reset(s.cfg.IncTimer)
}

// raiseRate runs one step of the DCQCN increase machine: fast recovery
// halves the gap to the target rate; past F stages, additive increase also
// raises the target.
func (s *Sender) raiseRate() {
	st := s.timerSt
	if s.byteSt > st {
		st = s.byteSt
	}
	if st > s.cfg.F {
		s.rt += float64(s.cfg.Rai)
		if s.rt > float64(s.cfg.LineRate) {
			s.rt = float64(s.cfg.LineRate)
		}
	}
	s.rc = (s.rt + s.rc) / 2
	if s.rc > float64(s.cfg.LineRate) {
		s.rc = float64(s.cfg.LineRate)
	}
}

// Rate returns the current sending rate in bits per second.
func (s *Sender) Rate() float64 { return s.rc }

// SentBytes returns bytes handed to the NIC so far.
func (s *Sender) SentBytes() int64 { return s.sent }

// Done reports whether the whole stream has been transmitted (the fabric is
// lossless, so transmitted means delivered).
func (s *Sender) Done() bool { return s.size >= 0 && s.sent >= s.size }

// Stop halts transmission and the rate-machine timers (end-of-simulation
// cleanup for unbounded flows, which otherwise schedule events forever).
func (s *Sender) Stop() {
	s.stopped = true
	s.alphaTimer.Stop()
	s.incTimer.Stop()
}

// Receiver counts arriving bytes and returns CNPs for ECN-marked packets,
// rate-limited to one per CNPInterval.
type Receiver struct {
	Flow uint64

	host  *fabric.Host
	arena *fabric.Arena
	peer  int32
	path  []int16
	cfg   Config

	lastCNP  sim.Time
	everCNP  bool
	Bytes    int64
	complete bool

	CompletedAt  sim.Time
	FirstArrival sim.Time
	seen         bool
	// OnComplete fires when the FIN arrives, OnCompleteAt with it for
	// callers that need the completion time only.
	OnComplete   func(r *Receiver)
	OnCompleteAt func(at sim.Time)
	snd          *Sender // the sending half of a split flow (split.go), nil otherwise

	// Goodput sampling for time-series plots.
	OnData func(bytes int64)
}

// NewReceiver builds the receiving side; path carries CNPs back. Pool calls
// it only on a miss.
func NewReceiver(host *fabric.Host, peer int32, flow uint64, revPath []int16, cfg Config) *Receiver {
	return &Receiver{
		Flow: flow, host: host, peer: peer, path: revPath, cfg: cfg,
		arena: fabric.AttachArena(host.EventList()),
	}
}

// Receive handles data packets.
func (r *Receiver) Receive(p *fabric.Packet) {
	if p.Type != fabric.Data {
		fabric.Free(p)
		return
	}
	if !r.seen {
		r.seen = true
		r.FirstArrival = r.host.EventList().Now()
	}
	r.Bytes += int64(p.DataSize)
	if r.OnData != nil {
		r.OnData(int64(p.DataSize))
	}
	if p.Flags&fabric.FlagCE != 0 {
		now := r.host.EventList().Now()
		if !r.everCNP || now-r.lastCNP >= r.cfg.CNPInterval {
			r.everCNP = true
			r.lastCNP = now
			c := r.arena.NewControl(fabric.CNP, r.Flow, r.host.ID, r.peer)
			c.Path = r.path
			r.host.Send(c)
		}
	}
	if p.Flags&fabric.FlagFIN != 0 && !r.complete {
		r.complete = true
		r.CompletedAt = r.host.EventList().Now()
		if r.OnComplete != nil {
			r.OnComplete(r)
		}
		if r.OnCompleteAt != nil {
			r.OnCompleteAt(r.CompletedAt)
		}
		if r.snd != nil {
			r.retire()
		}
	}
	fabric.Free(p)
}

// Complete reports whether the FIN has arrived (lossless fabric: FIN
// arrival implies everything before it arrived too, on the fixed path).
func (r *Receiver) Complete() bool { return r.complete }
