package core

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// Receiver is the receiving half of one NDP connection. For every arriving
// data packet it returns an ACK immediately; for every trimmed header a
// NACK (so the sender queues the retransmission); and for either kind it
// adds one PULL to the host's shared pull queue, whose pacing makes the
// aggregate arrival rate from all senders match the link rate.
type Receiver struct {
	Flow uint64
	Peer int32 // sender host id

	st *Stack
	// fp always points at fpv: the pull-queue entry lives inside the
	// receiver (same lifetime, one fewer allocation per fresh receiver).
	fp  *flowPull
	fpv flowPull

	// got is the arrival bitmap from the first missing packet to the highest
	// sequence number seen; its base advances over the received prefix, so a
	// sequence number below Base has arrived.
	got      fabric.SeqWindow[bool]
	nGot     int64
	total    int64 // packets; -1 until a FIN (or FIN-marked header) is seen
	bytes    int64
	complete bool

	CompletedAt sim.Time
	// OnCompleteAt observes the completion time (FlowOpts.OnReceiverDoneAt).
	OnCompleteAt func(sim.Time)
	// OnData observes each newly received payload byte count (goodput
	// time-series probes).
	OnData func(bytes int64)

	// Telemetry.
	Trims, Dups, Arrivals int64
}

func newReceiver(st *Stack, flow uint64, peer int32) *Receiver {
	r, ok := st.retiredR.Take(st.el())
	if ok {
		r.recycle()
	} else {
		r = &Receiver{st: st}
		r.fp = &r.fpv
		r.fpv = flowPull{r: r}
	}
	if n := len(st.spareR); n > 0 {
		r.got.Attach(st.spareR[n-1])
		st.spareR[n-1] = nil
		st.spareR = st.spareR[:n-1]
	}
	r.Flow = flow
	r.Peer = peer
	r.total = -1
	return r
}

// recycle resets a retired receiver to the zero state, keeping its stack
// and its pull-queue entry (already drained — Idle checked). Its arrival
// bitmap went to the stack's spareR when it finished.
func (r *Receiver) recycle() {
	st, fp := r.st, r.fp
	*r = Receiver{st: st, fp: fp}
	*fp = flowPull{r: r}
}

// Receive handles data packets and trimmed headers from the sender.
func (r *Receiver) Receive(p *fabric.Packet) {
	if p.Type != fabric.Data || p.Flags&fabric.FlagBounced != 0 {
		fabric.Free(p)
		return
	}
	r.Arrivals++
	seq := p.Seq
	for r.got.End() <= seq {
		r.got.Push(false)
	}
	have := seq < r.got.Base() || *r.got.At(seq)
	if p.Flags&fabric.FlagFIN != 0 && r.total < 0 {
		r.total = seq + 1
		defer r.clampPulls()
	}
	if p.Trimmed() {
		r.Trims++
		if have {
			// Stale header for data already held: ACK so the sender can
			// release the buffer instead of retransmitting uselessly.
			r.sendAckLike(fabric.Ack, p)
		} else {
			r.sendAckLike(fabric.Nack, p)
			r.addPull()
		}
		fabric.Free(p)
		return
	}
	if have {
		r.Dups++
		r.sendAckLike(fabric.Ack, p)
		fabric.Free(p)
		return
	}
	*r.got.At(seq) = true
	for r.got.Base() < r.got.End() && *r.got.At(r.got.Base()) {
		r.got.Advance()
	}
	r.nGot++
	r.bytes += int64(p.DataSize)
	if r.OnData != nil {
		r.OnData(int64(p.DataSize))
	}
	r.sendAckLike(fabric.Ack, p)
	if r.total >= 0 && r.nGot == r.total {
		r.finish()
	} else {
		r.addPull()
	}
	fabric.Free(p)
}

// sendAckLike returns an ACK or NACK for p immediately, echoing the data
// packet's path id so the sender's scoreboard attributes the feedback to the
// right path.
func (r *Receiver) sendAckLike(t fabric.PacketType, p *fabric.Packet) {
	c := r.st.arena.NewControl(t, r.Flow, r.st.Host.ID, r.Peer)
	c.Seq = p.Seq
	c.PathID = p.PathID
	r.st.sendControl(c)
}

// addPull queues one pull for this flow unless the transfer is finished or
// enough pulls are already pending to cover every missing packet.
func (r *Receiver) addPull() {
	if r.complete {
		return
	}
	if r.total >= 0 {
		missing := r.total - r.nGot
		if int64(r.fp.pending) >= missing {
			return
		}
	}
	r.st.pacer.addPull(r.fp)
}

// clampPulls implements "when the last packet arrives, the receiver removes
// any pull packets for that sender from its pull queue to avoid sending
// unnecessary pull packets": once the transfer length is known, pending
// pulls in excess of the missing packet count are cancelled.
func (r *Receiver) clampPulls() {
	if r.total < 0 {
		return
	}
	if missing := r.total - r.nGot; int64(r.fp.pending) > missing {
		r.fp.pending = int(missing)
	}
}

// finish completes the transfer: pending pulls for this sender are removed
// from the pull queue ("to avoid sending unnecessary pull packets"), and the
// receiver stays registered, answering late duplicates, until its flow's
// release: 2*MSL after its sender completed, so a sender whose final ACK was
// lost still finds it when it retransmits. Every packet has arrived, so the
// got window is empty and a late duplicate or header reads only its Base:
// the bitmap's buffer goes to the stack's spareR at once.
func (r *Receiver) finish() {
	r.complete = true
	r.CompletedAt = r.st.el().Now()
	r.st.pacer.removeFlow(r.fp)
	if r.OnCompleteAt != nil {
		r.OnCompleteAt(r.CompletedAt)
	}
	r.st.spareR = append(r.st.spareR, r.got.Detach())
}

// Retire hands the receiver its flow's release has removed from the table
// to the stack's free-list (fabric.Retirer).
func (r *Receiver) Retire() { r.st.retiredR.Push(r, retiredFirst) }

// Idle reports whether a released receiver may serve another flow
// (fabric.Idler): its pull-queue entry has drained.
func (r *Receiver) Idle(*sim.EventList) bool { return !r.fp.queued }

// Complete reports whether all data has been received.
func (r *Receiver) Complete() bool { return r.complete }

// Bytes returns distinct payload bytes received so far (receiver goodput).
func (r *Receiver) Bytes() int64 { return r.bytes }

// flowPull is one connection's entry in the shared pull queue: a count of
// owed pulls plus round-robin bookkeeping. Pull sequence numbers are
// assigned at transmission time so that reordered pulls still release the
// right amount of credit at the sender.
type flowPull struct {
	r       *Receiver
	pending int
	prio    bool
	queued  bool
	nextSeq int64
}

// pullPacer is the per-host pull queue (§3.2): one queue shared by all
// receivers on the host, drained at a fixed spacing so the data packets the
// pulls elicit arrive at the receiver's line rate. Connections are served
// fair round-robin by default; flows marked priority are served strictly
// first.
type pullPacer struct {
	st      *Stack
	spacing sim.Time

	// The pacer pops the head and re-pushes the round-robin survivor on
	// every transmitted pull, the pattern that makes an advance-the-slice
	// queue reallocate on nearly every push (in an incast it was once the
	// simulator's largest allocation site); a ring reuses the freed front.
	high, norm fabric.Ring[*flowPull]
	lastSent   sim.Time

	// OnGap records actual send gaps when a recorder is installed
	// (Figure 12).
	OnGap func(gap sim.Time)

	// The flags share one word: the pacer is embedded in the Stack, whose
	// size class every host pays for.
	fifo      bool // serve pulls in arrival order (fairness ablation)
	scheduled bool
	everSent  bool
}

// pullFirst is a pull queue's first buffer: one slot per connection with
// pulls owed (per pull in the FIFO ablation), and a large incast doubles it.
const pullFirst = 64

func (pp *pullPacer) init(st *Stack, spacing sim.Time) {
	pp.st = st
	pp.spacing = spacing
	pp.fifo = st.cfg.PullFIFO
}

func (pp *pullPacer) addPull(fp *flowPull) {
	fp.pending++
	if pp.fifo {
		// FIFO ablation: every pull occupies its own queue slot, so one
		// connection's burst of arrivals monopolizes the pacer.
		if fp.prio {
			pp.high.Push(fp, pullFirst)
		} else {
			pp.norm.Push(fp, pullFirst)
		}
	} else if !fp.queued {
		fp.queued = true
		if fp.prio {
			pp.high.Push(fp, pullFirst)
		} else {
			pp.norm.Push(fp, pullFirst)
		}
	}
	pp.schedule()
}

// removeFlow cancels all pending pulls for a connection; the entry is
// dropped lazily when the round-robin reaches it.
func (pp *pullPacer) removeFlow(fp *flowPull) { fp.pending = 0 }

func (pp *pullPacer) schedule() {
	if pp.scheduled || (pp.high.Len() == 0 && pp.norm.Len() == 0) {
		return
	}
	gap := pp.spacing
	if pp.st.cfg.PullJitter != nil {
		gap += pp.st.cfg.PullJitter(&pp.st.rand)
	}
	at := pp.st.el().Now()
	if pp.everSent && pp.lastSent+gap > at {
		at = pp.lastSent + gap
	}
	pp.scheduled = true
	pp.st.el().Schedule(at, pp, 0)
}

// OnEvent fires the pacer (sim.Handler) — scheduled per transmitted pull,
// so the typed path keeps the pull clock allocation-free.
func (pp *pullPacer) OnEvent(uint64) { pp.fire() }

// next pops the next flow owed a pull: strict priority first, round-robin
// within a band, skipping entries whose pulls were cancelled.
func (pp *pullPacer) next() *flowPull {
	// Array (not slice) literal: stays off the heap in the per-pull path.
	for _, band := range [...]*fabric.Ring[*flowPull]{&pp.high, &pp.norm} {
		for band.Len() > 0 {
			fp := band.Pop()
			if fp.pending <= 0 {
				fp.queued = false
				continue
			}
			fp.pending--
			if pp.fifo {
				return fp // occurrence-queued: no re-append
			}
			if fp.pending > 0 {
				band.Push(fp, pullFirst)
			} else {
				fp.queued = false
			}
			return fp
		}
	}
	return nil
}

func (pp *pullPacer) fire() {
	pp.scheduled = false
	fp := pp.next()
	if fp == nil {
		return
	}
	now := pp.st.el().Now()
	if pp.everSent && pp.OnGap != nil {
		pp.OnGap(now - pp.lastSent)
	}
	pp.lastSent = now
	pp.everSent = true

	fp.nextSeq++
	r := fp.r
	p := pp.st.arena.NewControl(fabric.Pull, r.Flow, pp.st.Host.ID, r.Peer)
	p.SetPullSeq(fp.nextSeq)
	pp.st.sendControl(p)
	pp.schedule()
}
