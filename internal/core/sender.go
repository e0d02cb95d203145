package core

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Per-packet sender-side state.
type pktState uint8

const (
	psUnsent    pktState = iota
	psInflight           // sent, no terminal feedback yet
	psRtxQueued          // NACKed or bounced, waiting for pull credit
	psAcked
)

// pkt is one packet's scoreboard entry.
type pkt struct {
	sentAt   sim.Time // last transmission
	firstTx  sim.Time // first transmission; -1 = never sent
	lastPath int16
	state    pktState
}

// pathStat is one path's feedback scoreboard (§3.2.3).
type pathStat struct {
	acks, naks, loss int64
}

// Sender is the sending half of one NDP connection. It pushes the first
// window at line rate with SYN on every packet, then becomes purely
// receiver-driven: each PULL increment releases one packet, retransmissions
// (NACKed or bounced) before new data. It sprays packets across all paths in
// sender-permuted order and maintains the per-path ACK/NACK/loss scoreboard
// that lets it avoid broken paths (§3.2.3).
type Sender struct {
	Flow     uint64
	Dst      int32
	lastSize int32 // size of the final packet

	st   *Stack
	size int64 // bytes; <0 means unbounded

	total int64 // packets; <0 means unbounded
	iw    int64

	// pkts is the per-packet scoreboard: one entry per sequence number from
	// the oldest un-ACKed packet to the newest sent. Its base advances over
	// the ACKed prefix, so a sequence number below Base is an ACKed packet.
	pkts fabric.SeqWindow[pkt]

	paths [][]int16
	// perm is the current permutation cycle, rebuilt in place by repermute:
	// its backing array is reused across cycles and across pooled flows
	// (repermute used to allocate a fresh slice on every permutation cycle
	// of every flow, about half the remaining steady-state allocations
	// after the scheduler rewrite).
	perm    []int
	permPos int
	// pstats is the per-path scoreboard (acks, nacks, timeouts), again one
	// array for all three counters.
	pstats []pathStat

	nextNew int64
	// rtxq is the FIFO of sequence numbers awaiting retransmission credit;
	// the window bounds it and a pooled sender keeps its buffer.
	rtxq        fabric.Ring[int64]
	lastPullSeq int64

	inflight       int64
	ackedCount     int64
	ackedBytes     int64
	ackedOrNacked  int64
	recentAcks     int64
	recentNacks    int64
	recentEvents   int64
	fwSent         int64 // first-window packets sent
	fwBounced      int64 // distinct first-window packets seen bounced
	rxEvents       int64 // every ACK/NACK/PULL/bounce received
	lastEventSnap  int64 // liveness marker for the RTO safety valve
	valveSilent    int   // consecutive silent RTO windows
	valveThreshold int   // silent windows required before the valve fires
	probeSeq       int64 // seq of the outstanding bounce probe (-1 none)
	rto            sim.Time
	timer          sim.Timer
	complete       bool
	onDone         func(*Sender)
	excludedActive int

	// reg is the receiver-side half of the flow's set-up, carried by the
	// sender half so that delivering it costs nothing; see Registration.
	reg registration

	// Telemetry used by the evaluation harness.
	PacketsSent     int64
	RtxFromNack     int64
	RtxFromBounce   int64
	RtxFromTimeout  int64
	BouncesSeen     int64
	NacksSeen       int64
	CompletedAt     sim.Time
	OnPacketLatency func(d sim.Time) // first-send -> ACK, per packet (Fig 4)
}

// rtxFirst is a retransmission queue's first buffer. Most senders never
// retransmit and own none; one that does queues a few trimmed packets of its
// window at a time, and a sender in a large incast doubles it.
const rtxFirst = 8

func newSender(st *Stack, opts FlowOpts, dst int32, size int64, paths [][]int16) *Sender {
	s := st.takeRetiredSender()
	if s == nil {
		s = &Sender{st: st}
		s.timer.InitHandler(st.el, s)
	} else {
		s.recycle()
	}
	s.Flow = opts.Flow
	s.Dst = dst
	s.size = size
	s.paths = paths
	s.pstats = growZeroPathStats(s.pstats, len(paths))
	s.onDone = opts.OnSenderDone
	s.reg = registration{prio: opts.Priority, doneAt: opts.OnReceiverDoneAt, data: opts.OnReceiverData}
	s.probeSeq = -1
	mtu := int64(st.cfg.MTU)
	if size >= 0 {
		s.total = (size + mtu - 1) / mtu
		if s.total == 0 {
			s.total = 1 // zero-byte transfer still needs a FIN packet
		}
		s.lastSize = int32(size - (s.total-1)*mtu)
		if s.lastSize == 0 {
			s.lastSize = int32(mtu)
		}
		if size == 0 {
			s.lastSize = fabric.HeaderSize
		}
	} else {
		s.total = -1
	}
	s.iw = int64(st.cfg.IW)
	if opts.IW > 0 {
		s.iw = int64(opts.IW)
	}
	// The configured RTO assumes the first window leaves within one RTT;
	// a very large IW takes IW serialization times just to exit the NIC,
	// so scale the timeout with the sender's own burst duration to avoid
	// spurious retransmissions of packets still queued locally.
	s.rto = st.cfg.RTO
	if burst := 2 * s.iw * int64(sim.TransmissionTime(st.cfg.MTU, st.Host.LinkRate())); sim.Time(burst) > s.rto {
		s.rto = sim.Time(burst)
	}
	s.repermute()
	return s
}

// recycle resets a retired sender to the zero state while keeping its
// identity-bound resources (stack, embedded timer — whose expiry handler
// already points at this object) and the backing arrays of its per-packet
// and per-path state, emptied for the next flow to refill.
func (s *Sender) recycle() {
	if s.reg.dst != nil && s.st.el.Now() <= s.reg.at {
		panic("core: sender recycled before its deferred registration ran")
	}
	st, timer := s.st, s.timer
	pkts, rtxq := s.pkts, s.rtxq
	pkts.Reset()
	rtxq.Reset()
	perm, pstats := s.perm[:0], s.pstats
	*s = Sender{st: st, timer: timer,
		pkts: pkts, rtxq: rtxq, perm: perm, pstats: pstats}
}

// growZeroPathStats returns s resized to n zeroed entries, reusing its
// backing array when capacity allows (one exact-size allocation otherwise).
func growZeroPathStats(s []pathStat, n int) []pathStat {
	if cap(s) < n {
		return make([]pathStat, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = pathStat{}
	}
	return s
}

// registration is what the destination stack must learn ahead of a flow's
// first packet: pull priority and the receiver-side observers.
type registration struct {
	dst    *Stack
	at     sim.Time
	doneAt func(sim.Time)
	data   func(int64)
	prio   bool
}

// Registration is a flow's receiver-side set-up as a deferred command: a
// sim.Handler over the sender half itself, so that sending it to the
// destination's scheduling domain (topo.Cluster.Defer) allocates nothing —
// the record lives where the flow already lives, in the pooled Sender.
//
// The record is written on the source's domain before the command is
// emitted, read once on the destination's at the command's time, and not
// rewritten until the sender is recycled, at least 2*MSL after the flow
// completed and so long after the registration ran; recycle panics if that
// ever fails to hold. Nothing else of the Sender is touched from the
// destination's domain.
type Registration Sender

// Registration records where and when the receiver-side set-up of this flow
// is due — on dst, at at — and returns the command that performs it.
func (s *Sender) Registration(dst *Stack, at sim.Time) *Registration {
	s.reg.dst, s.reg.at = dst, at
	return (*Registration)(s)
}

// OnEvent pre-registers the flow on the destination stack (sim.Handler); it
// runs in the destination's scheduling domain.
func (r *Registration) OnEvent(uint64) {
	reg := &r.reg
	reg.dst.PreRegister(r.Flow, reg.prio, nil, reg.doneAt, reg.data)
}

// Start pushes the first window at line rate (zero-RTT fast start).
func (s *Sender) Start() {
	burst := s.iw
	if s.total >= 0 && s.total < burst {
		burst = s.total
	}
	for i := int64(0); i < burst; i++ {
		s.sendData(s.nextNew, false)
		s.nextNew++
	}
}

// state returns seq's scoreboard state; everything below the window's base
// has been ACKed and dropped. seq must be below pkts.End().
func (s *Sender) state(seq int64) pktState {
	if seq < s.pkts.Base() {
		return psAcked
	}
	return s.pkts.At(seq).state
}

// nextPathID walks the permuted path list, re-permuting (and re-evaluating
// the scoreboard) after each full cycle.
func (s *Sender) nextPathID() int16 {
	if s.permPos >= len(s.perm) {
		s.repermute()
	}
	id := s.perm[s.permPos]
	s.permPos++
	return int16(id)
}

// repermute rebuilds the randomized path order, temporarily excluding
// scoreboard outliers: paths whose NACK fraction or loss count is far above
// the mean indicate asymmetry (a failed or degraded link), and spraying onto
// them would stall the whole transfer.
//
// It runs once per full path cycle, not per packet, and the scratch array is
// reused across cycles once grown.
func (s *Sender) repermute() {
	n := len(s.paths)
	if cap(s.perm) < n {
		s.perm = make([]int, 0, n)
	}
	// The new cycle is built over the old one's array; that is safe because
	// perm is fully rebuilt here before it is read again (nextPathID only
	// consults it between repermute calls).
	include := s.perm[:0]
	s.excludedActive = 0
	if !s.st.cfg.DisablePathPenalty && n > 1 {
		var fracSum float64
		var lossSum, qualified int64
		for i := 0; i < n; i++ {
			if t := s.pstats[i].acks + s.pstats[i].naks; t >= 4 {
				fracSum += float64(s.pstats[i].naks) / float64(t)
				qualified++
			}
			lossSum += s.pstats[i].loss
		}
		meanFrac, meanLoss := 0.0, float64(lossSum)/float64(n)
		if qualified > 0 {
			meanFrac = fracSum / float64(qualified)
		}
		for i := 0; i < n; i++ {
			t := s.pstats[i].acks + s.pstats[i].naks
			if t >= 4 && qualified > 1 {
				frac := float64(s.pstats[i].naks) / float64(t)
				if frac > 2*meanFrac+0.05 {
					s.excludedActive++
					continue
				}
			}
			if float64(s.pstats[i].loss) > 2*meanLoss+2 {
				s.excludedActive++
				continue
			}
			include = append(include, i)
		}
	}
	if len(include) == 0 {
		include = include[:0]
		for i := 0; i < n; i++ {
			include = append(include, i)
		}
		s.excludedActive = 0
	}
	// Exponential decay keeps exclusions temporary: a path's bad history
	// fades, so it is re-probed after a few cycles.
	for i := 0; i < n; i++ {
		s.pstats[i].acks -= s.pstats[i].acks / 4
		s.pstats[i].naks -= s.pstats[i].naks / 4
		s.pstats[i].loss -= s.pstats[i].loss / 4
	}
	s.st.rand.ShuffleInts(include)
	s.perm = include
	s.permPos = 0
}

// ExcludedPaths reports how many paths the scoreboard is currently avoiding.
func (s *Sender) ExcludedPaths() int { return s.excludedActive }

// sendData transmits packet seq (fresh or retransmission).
func (s *Sender) sendData(seq int64, rtx bool) {
	s.sendDataAvoiding(seq, rtx, -1)
}

// sendDataAvoiding transmits seq, avoiding path `avoid` when an alternative
// exists ("an NDP sender that retransmits a lost packet always resends it on
// a different path").
func (s *Sender) sendDataAvoiding(seq int64, rtx bool, avoid int16) {
	for s.pkts.End() <= seq {
		// firstTx -1 = never sent (0 is a valid time).
		s.pkts.Push(pkt{state: psUnsent, firstTx: -1, lastPath: -1})
	}
	size := int32(s.st.cfg.MTU)
	if s.total >= 0 && seq == s.total-1 {
		size = s.lastSize
	}
	pid := s.nextPathID()
	if avoid >= 0 && pid == avoid && len(s.paths) > 1 {
		pid = s.nextPathID()
	}
	p := s.st.arena.NewData(s.Flow, s.st.Host.ID, s.Dst, seq, size)
	if s.st.cfg.SwitchLB {
		pid = -1 // destination-routed: switches spray per packet
	} else {
		p.Path = s.paths[pid]
	}
	p.PathID = pid
	p.Sent = s.st.el.Now()
	if seq < s.iw {
		p.Flags |= fabric.FlagSYN
	}
	if s.total >= 0 && seq == s.total-1 {
		p.Flags |= fabric.FlagFIN
	}
	if rtx {
		p.Flags |= fabric.FlagRTX
	}
	e := s.pkts.At(seq)
	if e.state != psInflight {
		s.inflight++
	}
	e.state = psInflight
	e.sentAt = s.st.el.Now()
	if e.firstTx < 0 {
		e.firstTx = s.st.el.Now()
	}
	e.lastPath = pid
	s.PacketsSent++
	if seq < s.iw && !rtx {
		s.fwSent++
	}
	if !s.timer.Pending() {
		s.timer.Reset(s.rto)
	}
	s.st.Host.Send(p)
}

// sendNext releases one packet of pull credit: queued retransmissions first,
// then new data.
func (s *Sender) sendNext() {
	for s.rtxq.Len() > 0 {
		seq := s.rtxq.Pop()
		if s.state(seq) != psRtxQueued {
			continue // ACKed while queued
		}
		s.sendData(seq, true)
		return
	}
	if s.total < 0 || s.nextNew < s.total {
		s.sendData(s.nextNew, false)
		s.nextNew++
	}
}

// Receive handles control traffic addressed to this sender: ACKs, NACKs,
// PULLs and bounced (return-to-sender) headers.
func (s *Sender) Receive(p *fabric.Packet) {
	switch {
	case p.Type == fabric.Ack:
		s.onAck(p)
	case p.Type == fabric.Nack:
		s.onNack(p)
	case p.Type == fabric.Pull:
		s.onPull(p)
	case p.Type == fabric.Data && p.Flags&fabric.FlagBounced != 0:
		s.onBounce(p)
	}
	fabric.Free(p)
}

func (s *Sender) noteEvent(ack bool) {
	if ack {
		s.recentAcks++
	} else {
		s.recentNacks++
	}
	s.recentEvents++
	if s.recentEvents >= 64 {
		s.recentAcks /= 2
		s.recentNacks /= 2
		s.recentEvents = 0
	}
}

func (s *Sender) onAck(p *fabric.Packet) {
	s.rxEvents++
	if p.Seq == s.probeSeq {
		s.probeSeq = -1 // the bounce probe resolved
	}
	seq := p.Seq
	if seq < 0 || s.pkts.End() <= seq || s.state(seq) == psAcked {
		return
	}
	if p.PathID >= 0 && int(p.PathID) < len(s.pstats) {
		s.pstats[p.PathID].acks++
	}
	e := s.pkts.At(seq)
	if e.state == psInflight {
		s.inflight--
	}
	e.state = psAcked
	s.ackedCount++
	s.ackedOrNacked++
	s.noteEvent(true)
	sz := int64(s.st.cfg.MTU)
	if s.total >= 0 && seq == s.total-1 {
		sz = int64(s.lastSize)
	}
	s.ackedBytes += sz
	if s.OnPacketLatency != nil && e.firstTx >= 0 {
		s.OnPacketLatency(s.st.el.Now() - e.firstTx)
	}
	for s.pkts.Base() < s.pkts.End() && s.pkts.At(s.pkts.Base()).state == psAcked {
		s.pkts.Advance()
	}
	if s.total >= 0 && s.ackedCount == s.total && !s.complete {
		s.complete = true
		s.CompletedAt = s.st.el.Now()
		s.timer.Stop()
		s.st.enterTimeWait(s.Flow)
		if s.onDone != nil {
			s.onDone(s)
		}
		s.st.retireSender(s)
	}
}

func (s *Sender) onNack(p *fabric.Packet) {
	s.rxEvents++
	if p.Seq == s.probeSeq {
		s.probeSeq = -1 // the bounce probe resolved
	}
	seq := p.Seq
	if seq < 0 || s.pkts.End() <= seq {
		return
	}
	s.NacksSeen++
	if p.PathID >= 0 && int(p.PathID) < len(s.pstats) {
		s.pstats[p.PathID].naks++
	}
	s.noteEvent(false)
	if s.state(seq) != psInflight {
		return // already ACKed or already queued for rtx
	}
	s.inflight--
	s.pkts.At(seq).state = psRtxQueued
	s.ackedOrNacked++
	s.rtxq.Push(seq, rtxFirst)
	s.RtxFromNack++
}

func (s *Sender) onPull(p *fabric.Packet) {
	s.rxEvents++
	delta := p.PullSeq - s.lastPullSeq
	if delta <= 0 {
		return // reordered pull: a later one already released this credit
	}
	s.lastPullSeq = p.PullSeq
	for i := int64(0); i < delta; i++ {
		s.sendNext()
	}
}

// onBounce implements return-to-sender (§3.2.4): the switch sent this
// header back because its header queue overflowed. Resending everything
// immediately would echo the incast; never resending would stall flows
// whose entire window bounced (no pull clock). The paper's compromise:
// resend only when not expecting more pulls, or when every first-window
// packet also bounced, or when recent feedback is mostly ACKs (asymmetric
// network). We additionally keep at most one bounce-triggered probe in
// flight per connection — enough to restart the pull clock, bounded enough
// that a thousand-flow incast does not re-detonate itself.
func (s *Sender) onBounce(p *fabric.Packet) {
	seq := p.Seq
	if seq < 0 || s.pkts.End() <= seq || s.state(seq) != psInflight {
		return
	}
	s.rxEvents++
	s.BouncesSeen++
	if seq < s.iw {
		s.fwBounced++
	}
	if seq == s.probeSeq {
		s.probeSeq = -1 // the probe itself bounced again
	}
	s.inflight--
	s.pkts.At(seq).state = psRtxQueued
	s.RtxFromBounce++

	expectMorePulls := s.lastPullSeq < s.ackedOrNacked
	allFirstWindowBounced := s.fwBounced >= s.fwSent
	mostlyAcked := s.recentAcks > s.recentNacks && s.recentAcks >= 4
	resendNow := mostlyAcked || (!expectMorePulls || allFirstWindowBounced) && s.probeSeq < 0
	if resendNow {
		s.probeSeq = seq
		s.sendDataAvoiding(seq, true, p.PathID) // flips state back to inflight
		return
	}
	s.rtxq.Push(seq, rtxFirst)
}

// onTimeout is the RTO backstop: it directly retransmits packets that have
// been in flight for a full RTO (corruption, double bounce, or lost control
// packets), charging a loss to the path they used.
//
// It also runs the self-clock safety valve for the case where the pull
// clock died entirely (e.g. PULLs lost to header-queue overflow): after
// several RTO windows with no feedback of any kind, it releases one queued
// retransmission. Any ACK, NACK, PULL or bounce counts as liveness — in a
// huge incast a flow may legitimately hear from the receiver only every
// few milliseconds while the shared pull queue drains, and firing the
// valve then would re-detonate the incast. The silence threshold doubles
// on every firing (capped) and halves on progress, so a genuinely dead
// flow recovers within a few RTOs while a patient one stays quiet.
// OnEvent is the RTO expiry dispatch (the sender's embedded timer fires
// through the Handler interface, which costs no per-flow allocation).
func (s *Sender) OnEvent(uint64) { s.onTimeout() }

func (s *Sender) onTimeout() {
	if s.complete {
		return
	}
	now := s.st.el.Now()
	resent := 0
	for seq := s.pkts.Base(); seq < s.pkts.End(); seq++ {
		if e := s.pkts.At(seq); e.state == psInflight && e.sentAt+s.rto <= now {
			if pid := e.lastPath; pid >= 0 {
				s.pstats[pid].loss++
			}
			s.inflight-- // sendDataAvoiding re-increments
			e.state = psRtxQueued
			s.RtxFromTimeout++
			s.sendDataAvoiding(seq, true, e.lastPath)
			resent++
		}
	}
	if s.valveThreshold == 0 {
		s.valveThreshold = 1
	}
	if resent == 0 && s.rxEvents == s.lastEventSnap && s.rtxq.Len() > 0 {
		s.valveSilent++
		if s.valveSilent >= s.valveThreshold {
			s.valveSilent = 0
			if s.valveThreshold < 64 {
				s.valveThreshold *= 2
			}
			s.RtxFromTimeout++
			s.sendNext()
		}
	} else if s.rxEvents != s.lastEventSnap {
		s.valveSilent = 0
		if s.valveThreshold > 1 {
			s.valveThreshold /= 2
		}
	}
	s.lastEventSnap = s.rxEvents
	s.timer.Reset(s.rto)
}

// Complete reports whether every packet has been ACKed.
func (s *Sender) Complete() bool { return s.complete }

// AckedBytes returns cumulatively acknowledged payload bytes (the sender-
// side goodput measure used for unbounded flows).
func (s *Sender) AckedBytes() int64 { return s.ackedBytes }

// TotalPackets returns the transfer length in packets (-1 if unbounded).
func (s *Sender) TotalPackets() int64 { return s.total }

// Retransmissions returns the total number of retransmitted sends.
func (s *Sender) Retransmissions() int64 {
	return s.RtxFromNack + s.RtxFromBounce + s.RtxFromTimeout
}
