// Package mptcp implements Multipath TCP with the Linked-Increases
// Algorithm (LIA, RFC 6356 / Raiciu et al., the paper's high-throughput
// baseline). A Flow opens N subflows, each a TCP NewReno instance
// (internal/tcp) pinned to a distinct source route; congestion-avoidance
// growth is coupled across subflows so the aggregate is fair to single-path
// TCP while moving traffic off congested paths.
package mptcp

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/tcp"
)

// Config parameterizes an MPTCP connection.
type Config struct {
	// Subflows is the number of subflows (the paper's comparisons use 8).
	Subflows int
	// TCP is the per-subflow configuration; DCTCP must be off.
	TCP tcp.Config
}

// DefaultConfig matches the paper's MPTCP setup: 8 subflows, 9000B MSS,
// datacenter-tuned MinRTO.
func DefaultConfig() Config {
	return Config{
		Subflows: 8,
		TCP: tcp.Config{
			MSS:         9000,
			InitialCwnd: 10,
			MaxCwnd:     1000,
			MinRTO:      10 * sim.Millisecond,
			Handshake:   true,
		},
	}
}

// Flow is one MPTCP connection: a shared stream striped over subflows.
type Flow struct {
	Flow uint64
	Size int64 // bytes; <0 unbounded

	Senders   []*tcp.Sender
	Receivers []*tcp.Receiver

	subflows    int
	received    int64
	complete    bool
	CompletedAt sim.Time
	// OnComplete fires when the stream is fully received, OnCompleteAt
	// with it for callers that need the completion time only.
	OnComplete   func(f *Flow)
	OnCompleteAt func(at sim.Time)

	// attach is the receiver half's construction, carried by the flow so
	// that delivering it costs nothing; see Attach.
	attach struct {
		dst    *fabric.Host
		demux  *fabric.Demux
		routes tcp.Routes
		rand   sim.Rand
		onData func(n int64)
		pool   *tcp.Pool
	}
}

// sharedSource stripes one stream across subflows: each subflow claims the
// next MSS when it wants to send a fresh packet.
type sharedSource struct{ inner *tcp.FixedSource }

func (s *sharedSource) Claim() int      { return s.inner.Claim() }
func (s *sharedSource) Exhausted() bool { return s.inner.Exhausted() }

// unboundedSource never runs out (permutation-style long flows).
type unboundedSource struct{ mss int }

func (s *unboundedSource) Claim() int      { return s.mss }
func (s *unboundedSource) Exhausted() bool { return false }

// New builds an MPTCP flow from srcHost to dstHost. paths must contain the
// forward source routes and revPaths the reverse ones; subflows are pinned
// to distinct paths chosen by rand (wrapping if there are fewer paths than
// subflows). Flows are registered on the given demuxes under ids
// flow..flow+Subflows-1.
//
// New touches both hosts' state, so it is a single-scheduling-domain
// convenience. Sharded engines use the split construction: NewSenderHalf
// on the source's domain, then AttachReceivers deferred onto the
// destination's.
func New(src, dst *fabric.Host, srcDemux, dstDemux *fabric.Demux, flow uint64,
	size int64, paths, revPaths [][]int16, rand *sim.Rand, cfg Config) *Flow {
	f := NewSenderHalf(src, dst.ID, srcDemux, flow, size, paths, rand, cfg, nil)
	f.AttachReceivers(dst, dstDemux, revPaths, rand, nil, nil)
	return f
}

// NewSenderHalf builds the source-side half of an MPTCP flow: the subflow
// senders on their permuted forward paths, registered on srcDemux and
// coupled by LIA, but not yet started. It touches only source-host state
// and draws only from rand (the forward permutation), so it is safe to run
// in the source's scheduling domain of a sharded engine; complete the flow
// with AttachReceivers in the destination's domain before the first data
// packet arrives.
//
// pool, when non-nil, recycles completed subflow sender state; it must
// belong to the source's scheduling domain. Subflows are group-retired only
// once every one of them has completed, because LIA reads sibling windows
// for as long as any subflow is still growing.
func NewSenderHalf(src *fabric.Host, dst int32, srcDemux *fabric.Demux, flow uint64,
	size int64, paths [][]int16, rand *sim.Rand, cfg Config, pool *tcp.Pool) *Flow {
	if cfg.Subflows <= 0 {
		cfg.Subflows = 8
	}
	f := &Flow{Flow: flow, Size: size, subflows: cfg.Subflows}

	var source tcp.DataSource
	if size < 0 {
		source = &unboundedSource{mss: cfg.TCP.MSS}
	} else {
		source = &sharedSource{inner: tcp.NewFixedSource(size, cfg.TCP.MSS)}
	}

	fwdPerm := rand.Perm(len(paths))
	for i := 0; i < cfg.Subflows; i++ {
		id := flow + uint64(i)
		fwd := paths[fwdPerm[i%len(fwdPerm)]]
		var snd *tcp.Sender
		if pool != nil {
			snd = pool.NewGroupSender(src, srcDemux, dst, id, fwd, source, cfg.TCP)
		} else {
			snd = tcp.NewSender(src, dst, id, fwd, source, cfg.TCP)
			srcDemux.Register(id, snd)
		}
		f.Senders = append(f.Senders, snd)
	}
	// Couple congestion avoidance across the subflows (LIA).
	for _, snd := range f.Senders {
		snd.SetIncrease(f.liaIncrease)
	}
	if pool != nil {
		remaining := len(f.Senders)
		for _, snd := range f.Senders {
			snd.OnComplete = func(*tcp.Sender) {
				remaining--
				if remaining == 0 {
					for _, sb := range f.Senders {
						pool.RetireSender(sb)
					}
				}
			}
		}
	}
	return f
}

// AttachReceivers builds the destination-side half: one receiver per
// subflow on reverse paths permuted by rand, registered on dstDemux, with
// the completion accounting chained to the optional onData observer. It
// touches only destination-host state (plus the Flow's receiver-owned
// fields), so a sharded engine defers it onto the destination's domain —
// with a rand seeded from a value drawn in the source's domain, which
// keeps the reverse-path choice deterministic without sharing a stream
// across shards.
// pool, when non-nil, recycles completed subflow receiver state; it must
// belong to the destination's scheduling domain.
func (f *Flow) AttachReceivers(dst *fabric.Host, dstDemux *fabric.Demux,
	revPaths [][]int16, rand *sim.Rand, onData func(n int64), pool *tcp.Pool) {
	revPerm := rand.Perm(len(revPaths))
	for i := 0; i < f.subflows; i++ {
		id := f.Flow + uint64(i)
		rev := revPaths[revPerm[i%len(revPerm)]]
		var rcv *tcp.Receiver
		if pool != nil {
			rcv = pool.NewReceiver(dst, dstDemux, f.Senders[i].Host().ID, id, rev)
		} else {
			rcv = tcp.NewReceiver(dst, f.Senders[i].Host().ID, id, rev)
		}
		rcv.OnData = func(n int64) {
			f.received += n
			if f.Size >= 0 && f.received >= f.Size && !f.complete {
				f.complete = true
				f.CompletedAt = dst.EventList().Now()
				if f.OnComplete != nil {
					f.OnComplete(f)
				}
				if f.OnCompleteAt != nil {
					f.OnCompleteAt(f.CompletedAt)
				}
			}
			if onData != nil {
				onData(n)
			}
		}
		dstDemux.Register(id, rcv)
		f.Receivers = append(f.Receivers, rcv)
	}
}

// Attach is AttachReceivers as a deferred command: a sim.Handler over the
// flow itself, so that sending it to the destination's scheduling domain
// (topo.Cluster.Defer) needs no closure. The record is written before the
// command is emitted and read once, on the destination's domain.
type Attach Flow

// Attach records the arguments of AttachReceivers — the reverse routes are
// enumerated on the destination's domain, whose route cache it is, and
// permuted by a generator seeded with revSeed, a value drawn from the
// source's stream — and returns the command that calls it.
func (f *Flow) Attach(dst *fabric.Host, dstDemux *fabric.Demux, routes tcp.Routes, revSeed uint64,
	onData func(n int64), pool *tcp.Pool) *Attach {
	a := &f.attach
	a.dst, a.demux, a.routes, a.onData, a.pool = dst, dstDemux, routes, onData, pool
	a.rand.Init(revSeed)
	return (*Attach)(f)
}

// OnEvent attaches the receivers (sim.Handler); it runs in the
// destination's scheduling domain.
func (a *Attach) OnEvent(uint64) {
	f, at := (*Flow)(a), &a.attach
	src := f.Senders[0].Host()
	f.AttachReceivers(at.dst, at.demux, at.routes.Paths(at.dst.ID, src.ID), &at.rand, at.onData, at.pool)
}

// Start launches every subflow.
func (f *Flow) Start() {
	for _, s := range f.Senders {
		s.Start()
	}
}

// liaIncrease is RFC 6356's coupled increase: for one acked packet on a
// subflow with window w, the increment is min(alpha/w_total, 1/w) where
//
//	alpha = w_total * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2
//
// computed over subflows with an RTT estimate.
func (f *Flow) liaIncrease(sub *tcp.Sender) float64 {
	var total, sumWR, maxWR2 float64
	for _, s := range f.Senders {
		w := s.Cwnd()
		total += w
		rtt := s.SRTT().Seconds()
		if rtt <= 0 {
			continue
		}
		sumWR += w / rtt
		if v := w / (rtt * rtt); v > maxWR2 {
			maxWR2 = v
		}
	}
	if total <= 0 || sumWR <= 0 {
		return 1 / sub.Cwnd()
	}
	alpha := total * maxWR2 / (sumWR * sumWR)
	inc := alpha / total
	if single := 1 / sub.Cwnd(); inc > single {
		inc = single
	}
	return inc
}

// ReceivedBytes returns distinct stream bytes received across subflows.
func (f *Flow) ReceivedBytes() int64 { return f.received }

// AckedBytes sums sender-side acknowledged bytes across subflows (the
// goodput measure for unbounded flows).
func (f *Flow) AckedBytes() int64 {
	var n int64
	for _, s := range f.Senders {
		n += s.AckedBytes
	}
	return n
}

// Complete reports whether the stream has been fully received.
func (f *Flow) Complete() bool { return f.complete }

// TotalRtx sums retransmissions across subflows.
func (f *Flow) TotalRtx() int64 {
	var n int64
	for _, s := range f.Senders {
		n += s.Rtx
	}
	return n
}
