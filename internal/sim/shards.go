package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the conservative parallel-discrete-event runner behind
// sharded simulations: several EventLists (one per topology shard) advance
// in lockstep time windows bounded by the minimum latency of any
// cross-shard link (the lookahead, in the Chandy–Misra sense). Within a
// window shards share nothing and may run on separate goroutines; at each
// window boundary an exchange callback hands the cross-shard mailboxes over
// to the destination lists, where their entries become keyed events.
//
// Correctness rests on two invariants the wiring layer must uphold:
//
//  1. every cross-shard interaction is emitted as a message whose delivery
//     time is at least Lookahead after the emitting event, so a message
//     produced by an event at time t is always delivered at or after
//     t + Lookahead and the boundary exchange never injects into the past;
//  2. cross-shard messages are scheduled with canonical ord keys
//     (DeliveryOrd/CommandOrd), so their firing order at equal timestamps
//     does not depend on which side of a shard boundary they crossed —
//     which is what makes an N-shard run bit-identical to a 1-shard run.
//
// Windows are adaptive: every window ends at one aligned time derived from
// all shards' next pending events (see windowLimits), so the fixed
// lookahead is only the worst case. When peer shards have nothing pending
// soon the window widens automatically — an idle-peer phase costs one
// barrier per stretch instead of one barrier per lookahead of virtual time.
//
// Within a window the shards run on a fixed set of worker goroutines joined
// by a spin-then-park epoch barrier (see runWindow); WindowStats reports
// what the windows did.

// Runner is the engine surface a driver needs: both *EventList (the
// single-list engine) and *MultiRunner (the sharded one) implement it.
type Runner interface {
	// Now returns the current simulated time.
	Now() Time
	// RunUntil processes events with timestamps <= deadline and advances
	// the clock (all shard clocks) to exactly the deadline.
	RunUntil(deadline Time)
	// Executed returns the total events fired since creation.
	Executed() uint64
	// QueueStats returns what the scheduler's two tiers did, summed over
	// all event lists.
	QueueStats() QueueStats
}

// Mailboxes lets each shard drain its own inbound mailboxes, on its own
// goroutine at the start of its window, instead of the coordinator pushing
// every crossing into another core's heap at the barrier. Exchange then only
// publishes what was emitted during the window.
type Mailboxes interface {
	// InboundAt returns the time of the earliest entry published to shard
	// and not yet drained (Infinity when none). The runner treats it as a
	// pending event of that shard, so windows are exactly what they would
	// be had Exchange drained it.
	InboundAt(shard int) Time
	// DrainInbound schedules every entry published to shard on its list.
	DrainInbound(shard int)
}

// MultiRunner advances a set of shard EventLists in conservative windows
// bounded by the cross-shard lookahead.
type MultiRunner struct {
	// Lists are the per-shard schedulers, index = shard id.
	Lists []*EventList
	// Lookahead is a lower bound on every entry of the lookahead matrix: a
	// summary for callers. The matrix governs the windows.
	Lookahead Time
	// Exchange drains all cross-shard mailboxes into the destination
	// lists — or, with Inbound set, only publishes them. It runs
	// single-threaded between windows, once per window.
	Exchange func()
	// Inbound, when set, is the destination-side half of the exchange.
	Inbound Mailboxes
	// Parallel runs each window's shards on separate goroutines. Serial
	// execution is bit-identical (behavior is fixed by event keys, not by
	// the execution schedule); parallel is the point of sharding.
	Parallel bool

	// matrix is the per-pair lookahead: matrix[j][i] is the minimum
	// latency of any interaction emitted by shard j that reaches shard i
	// (Infinity when nothing j does can ever reach i). NewMultiRunner
	// installs the uniform matrix; SetLookaheadMatrix replaces it.
	matrix [][]Time
	// react[i] is the minimum round-trip lookahead out of and back into
	// shard i: min over j != i of matrix[i][j] + matrix[j][i]. It bounds
	// how soon a *reaction* to shard i's own emissions can return (2L
	// under the uniform matrix).
	react []Time

	// next and limits are the per-shard next-event snapshot and window
	// horizon, rewritten by the coordinator before each window and
	// read-only while one runs.
	next, limits []Time

	stats    WindowStats
	executed []uint64 // per-shard Executed() at the last window boundary

	// The barrier. nw goroutines share the shards, worker k always running
	// shards k, k+nw, ...; the coordinator (the RunUntil caller) is worker
	// 0 and workers[k-1] is the state of worker k >= 1. Workers start
	// lazily on the first window that keeps two of them busy and live
	// until Close.
	nw       int
	workers  []*shardWorker
	exited   sync.WaitGroup
	spinning bool   // a run epoch was published since the last park epoch
	seq      uint64 // epochs published so far
	coord    parker // where the coordinator waits for the workers
	_        [64]byte
	// epoch is seq<<2 | command, published by the coordinator and awaited
	// by every worker. It sits on its own cache line, as does each
	// worker's done word.
	epoch atomic.Uint64
	_     [64]byte
}

// Epoch commands, the low bits of MultiRunner.epoch.
const (
	epochRun  = iota // run your shards up to limits, then store the epoch into done
	epochPark        // nothing follows soon: park without spinning
	epochStop        // exit
	epochCmd  = 3    // mask
)

// spinBudget is how many times a waiter polls before it parks: about ten
// milliseconds, a few scheduler ticks. Parking is for waits that long (a
// peer that lost its core, a long stretch of windows with one busy shard);
// a window itself is tens of microseconds of work, and a waiter that parks
// every window pays a futex round trip per window, which measured slower
// than not sharding at all. That regime sustains itself where the kernel
// wakes a parked thread on its waker's core: the two shards then share that
// core while another idles, every wait runs into the budget, and every park
// hides the imbalance from the load balancer, whereas two threads that keep
// spinning are eventually pulled apart. Measured on a 2-vCPU KVM guest with
// such a kernel: 1<<16 polls is 20 % slower all the time; with 1<<20 a
// sparse workload (5 events a window) spent its first second in that
// regime, 10x slower, in four processes of seven, with 1<<22 and 1<<24 in
// none of eight. It is a count because this package may not read the wall
// clock.
//
// Every spinYield polls (a few microseconds) the waiter yields its P. With
// a core per worker that is a no-op, and most waits end before the first
// one; when several sharded simulations share the process (parallel tests,
// sweep workers, the daemon) the shard being waited for may be queued
// behind the waiter, and without the yield every window would burn the
// whole budget first — the shard-determinism tests ran 13x slower. Yielding
// more often than this buys nothing there and costs 30 % when GOMAXPROCS
// exceeds the CPUs (every yield then wakes an idle P).
const (
	spinBudget = 1 << 24
	spinYield  = 1 << 14
)

// shardWorker is the barrier state of one worker goroutine.
type shardWorker struct {
	_ [64]byte
	// done is the last run epoch this worker completed.
	done atomic.Uint64
	parker
	acked uint64 // the coordinator's copy of done
	_     [64]byte
}

// parker is the sleeping half of a spin-then-park wait: a flag the waiter
// raises before it blocks and a one-token channel the other side posts to
// when it sees the flag.
type parker struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1; a token may be stale
}

// await returns the value of *word once it differs from old. It polls spin
// times, then parks: raise the flag, look once more, block. The publisher
// stores the word and then looks at the flag (unpark), so one of the two
// always sees the other (Dekker). A token left over from a wake-up that
// lost that race costs one extra trip around the loop.
func (p *parker) await(word *atomic.Uint64, old uint64, spin int) uint64 {
	for {
		for i := 0; i < spin; i++ {
			if v := word.Load(); v != old {
				return v
			}
			if i%spinYield == spinYield-1 {
				runtime.Gosched()
			}
		}
		p.parked.Store(true)
		if v := word.Load(); v != old {
			p.parked.Store(false)
			return v
		}
		<-p.wake
		p.parked.Store(false)
	}
}

// unpark wakes the waiter if it has parked (or is about to).
func (p *parker) unpark() {
	if p.parked.Load() {
		select {
		case p.wake <- struct{}{}:
		default:
		}
	}
}

// WindowStats counts what a runner's windows did. Every field is a function
// of the event schedule alone (never of timing or of the worker count), so
// the values are deterministic for a given simulation; they are kept apart
// from the simulation's own results all the same.
type WindowStats struct {
	// Windows is the number of windows run.
	Windows uint64 `json:"windows"`
	// SingleBusy is how many of them had exactly one shard with work.
	SingleBusy uint64 `json:"single_busy_windows"`
	// Events is the events fired inside windows, per shard.
	Events []uint64 `json:"shard_events"`
	// Critical sums, over the windows, the events of each window's busiest
	// shard: what a run with one core per shard still executes one after
	// another.
	Critical uint64 `json:"critical_events"`
}

// Add accumulates another runner's counters (shard by shard).
func (s *WindowStats) Add(o WindowStats) {
	s.Windows += o.Windows
	s.SingleBusy += o.SingleBusy
	s.Critical += o.Critical
	for i, e := range o.Events {
		if i == len(s.Events) {
			s.Events = append(s.Events, 0)
		}
		s.Events[i] += e
	}
}

// CriticalShare is Critical over all events: 1/shards when every window
// splits evenly, 1 when the shards take turns. Its inverse bounds the
// speedup the windows allow, whatever the barrier costs.
func (s WindowStats) CriticalShare() float64 {
	var total uint64
	for _, e := range s.Events {
		total += e
	}
	if total == 0 {
		return 0
	}
	return float64(s.Critical) / float64(total)
}

// NewMultiRunner builds a runner over the given shard lists with a uniform
// lookahead between every pair. Parallel defaults to off on a single-CPU
// process, where there is nothing to run a second shard on; behavior is
// identical either way.
func NewMultiRunner(lists []*EventList, lookahead Time, exchange func()) *MultiRunner {
	if lookahead <= 0 {
		panic("sim: MultiRunner needs positive lookahead")
	}
	n := len(lists)
	mr := &MultiRunner{Lists: lists, Lookahead: lookahead, Exchange: exchange,
		Parallel: runtime.GOMAXPROCS(0) > 1,
		next:     make([]Time, n), limits: make([]Time, n),
		stats:    WindowStats{Events: make([]uint64, n)},
		executed: make([]uint64, n),
		coord:    parker{wake: make(chan struct{}, 1)}}
	uniform := make([][]Time, n)
	for i := range uniform {
		uniform[i] = make([]Time, n)
		for j := range uniform[i] {
			if i != j {
				uniform[i][j] = lookahead
			}
		}
	}
	mr.SetLookaheadMatrix(uniform)
	return mr
}

// SetLookaheadMatrix installs the per-pair lookahead: L[j][i] is the
// minimum latency of any interaction shard j can emit toward shard i —
// the minimum total path delay across the actual cut edges from j to i,
// Infinity when no path crosses. Off-diagonal entries must be positive
// and at least the scalar Lookahead; diagonal entries are ignored. The
// matrix must be the metric closure of the shard quotient graph (L[j][i]
// <= L[j][k] + L[k][i] for all k), which the topology layer guarantees by
// computing it as an all-pairs shortest path; windowLimits relies on the
// triangle inequality to bound multi-hop reaction chains by round trips.
func (mr *MultiRunner) SetLookaheadMatrix(L [][]Time) {
	n := len(mr.Lists)
	if len(L) != n {
		panic("sim: lookahead matrix must be shards x shards")
	}
	react := make([]Time, n)
	for i := range L {
		if len(L[i]) != n {
			panic("sim: lookahead matrix must be shards x shards")
		}
		react[i] = Infinity
		for j, l := range L[i] {
			if i == j {
				continue
			}
			if l < mr.Lookahead {
				panic("sim: lookahead matrix entry below the scalar lookahead")
			}
			if rt := SatAdd(l, L[j][i]); rt < react[i] {
				react[i] = rt
			}
		}
	}
	mr.matrix, mr.react = L, react
}

// WindowStats returns the window counters accumulated so far. Call it
// between runs, not during one.
func (mr *MultiRunner) WindowStats() WindowStats {
	s := mr.stats
	s.Events = append([]uint64(nil), s.Events...)
	return s
}

// Close stops the shard workers (if any were started) and returns once
// they have exited. The runner remains usable afterwards — the next
// parallel window simply restarts them — so Close is a resource release,
// not a terminal state. It is safe to call twice, and on a runner that
// never went parallel.
func (mr *MultiRunner) Close() {
	if mr.workers == nil {
		return
	}
	mr.publish(epochStop)
	mr.exited.Wait()
	mr.workers = nil
}

// Now returns the farthest-behind shard clock (all clocks are equal after
// RunUntil returns).
func (mr *MultiRunner) Now() Time {
	now := mr.Lists[0].Now()
	for _, el := range mr.Lists[1:] {
		if t := el.Now(); t < now {
			now = t
		}
	}
	return now
}

// Executed sums events fired across all shards.
func (mr *MultiRunner) Executed() uint64 {
	var n uint64
	for _, el := range mr.Lists {
		n += el.Executed()
	}
	return n
}

// QueueStats sums the shards' scheduler-tier counters.
func (mr *MultiRunner) QueueStats() QueueStats {
	var s QueueStats
	for _, el := range mr.Lists {
		s.Add(el.QueueStats())
	}
	return s
}

// snapshot records every shard's earliest pending event time in next and
// returns the earliest of them.
func (mr *MultiRunner) snapshot() Time {
	at := Infinity
	for i, el := range mr.Lists {
		t := el.NextAt()
		if mr.Inbound != nil {
			t = min(t, mr.Inbound.InboundAt(i))
		}
		mr.next[i] = t
		if t < at {
			at = t
		}
	}
	return at
}

// windowLimits computes each shard's horizon for the next window from the
// snapshot of next-event times and returns how many shards have work below
// theirs. Shard i may safely run every event with a timestamp strictly
// below
//
//	safe_i = min( min_{j != i}(N_j + L[j][i]),  N_i + R_i )
//
// where N_j is shard j's earliest pending event and L[j][i] the pair
// lookahead from j to i:
//   - any message another shard j emits this window comes from an event at
//     time >= N_j and needs at least L[j][i] to reach i, so it arrives at
//     >= N_j + L[j][i] >= safe_i;
//   - any *future* message toward i is a reaction to something i itself
//     emitted this window — a chain i -> j -> ... -> i costs at least the
//     round trip R_i = min_j(L[i][j] + L[j][i]), because the matrix is a
//     metric closure and longer chains only add hops — so it arrives at
//     >= N_i + R_i >= safe_i.
//
// Nothing injected at this or any later barrier can therefore land in
// shard i's past, and the same holds for any horizon at or below safe_i.
// The window uses one: every shard stops at
//
//	T_end = min over shards with work (N_i < safe_i) of safe_i.
//
// Left at their own safe_i, two busy shards leapfrog: with N_1 = N_0 + s,
// shard 0 may run to N_1 + L and shard 1 only to N_0 + L, so the skew comes
// back as -s after the window and never decays — the shards take turns
// doing 2L of work while the other does almost none, and the windows
// themselves cap a 2-shard speedup near 1.3x. Ending the window at T_end
// removes the skew in one window, for a few percent more windows.
//
// Progress holds: the globally earliest shard has work (every N_j + L[j][i]
// term is at least its own N_i plus a positive lookahead), so T_end exists
// and the shard that sets it fires at least one event. When peer shards are
// idle (N_j far ahead or Infinity) a lone busy shard still runs to
// N_i + R_i, well beyond the fixed lookahead, and distant shard pairs
// (multi-hop cuts, or no connecting path at all: L = Infinity) do not
// constrain each other.
func (mr *MultiRunner) windowLimits(deadline Time) (busy int) {
	// The +1 makes the exclusive window bound inclusive of events at
	// exactly the deadline, still within the conservative limit. Saturate:
	// a deadline at or near Infinity must clamp, not wrap every horizon
	// to 0 and livelock RunUntil.
	end := SatAdd(deadline, 1)
	for i, at := range mr.next {
		limit := SatAdd(at, mr.react[i])
		for j, peer := range mr.next {
			if j == i {
				continue
			}
			if h := SatAdd(peer, mr.matrix[j][i]); h < limit {
				limit = h
			}
		}
		mr.limits[i] = limit
		if at < limit && limit < end {
			end = limit
		}
	}
	for i, at := range mr.next {
		if end < mr.limits[i] {
			mr.limits[i] = end
		}
		if at < mr.limits[i] {
			busy++
		}
	}
	return busy
}

// RunUntil drives windows until every event with a timestamp <= deadline
// has fired, then sets all shard clocks to the deadline. Empty stretches of
// virtual time are skipped: per-shard horizons derive from the earliest
// pending events, so idle phases (closed-loop gaps) cost no barriers.
func (mr *MultiRunner) RunUntil(deadline Time) {
	if mr.workers == nil {
		// At most one goroutine per core: a spinning waiter must never
		// hold the core that the shard it waits for needs.
		mr.nw = min(len(mr.Lists), runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	// Drain the mailboxes before choosing the first window: setup code
	// (flow priming on the coordinator goroutine, between runs) may have
	// emitted cross-shard entries that no event list knows about yet, and
	// the window-start jump below must not skip past their times.
	if mr.Exchange != nil {
		mr.Exchange()
	}
	for i, el := range mr.Lists {
		mr.executed[i] = el.Executed() // events fired outside windows are not counted
	}
	for {
		// An empty schedule reports Infinity; treat it as done even when
		// the deadline itself is Infinity, or the loop never exits.
		if at := mr.snapshot(); at > deadline || at == Infinity {
			break
		}
		mr.runWindow(mr.windowLimits(deadline))
		if mr.Exchange != nil {
			mr.Exchange()
		}
	}
	if mr.spinning {
		// Nothing may follow for a long time: leave no worker spinning
		// between runs.
		mr.publish(epochPark)
	}
	for _, el := range mr.Lists {
		el.AdvanceTo(deadline)
	}
}

// runWindow executes one window — every shard runs its pending events up
// to its horizon — and counts it.
//
// A window that keeps at least two workers busy crosses the barrier: the
// coordinator publishes a new epoch, runs worker 0's shards itself, and
// waits for every other worker's done word to reach the epoch. Both sides
// wait by polling an atomic and park only after spinBudget polls, because
// a window is tens of microseconds of work and a sleeping handoff costs
// about as much again. The epoch store and the done stores are also the
// happens-before edges that the single-writer mailboxes, limits and the
// event lists themselves rely on.
func (mr *MultiRunner) runWindow(busy int) {
	if mr.busyWorkers(busy) < 2 {
		// Handoff costs more than it buys when one goroutine has all the
		// work.
		for i := range mr.Lists {
			mr.runShard(i)
		}
	} else {
		if mr.workers == nil {
			mr.startWorkers()
		}
		epoch := mr.publish(epochRun)
		mr.runShards(0)
		for _, w := range mr.workers {
			w.acked = mr.coord.await(&w.done, w.acked, spinBudget)
			if w.acked != epoch {
				panic("sim: shard worker acknowledged an epoch that was not published")
			}
		}
	}

	s := &mr.stats
	s.Windows++
	if busy == 1 {
		s.SingleBusy++
	}
	var most uint64
	for i, el := range mr.Lists {
		e := el.Executed() - mr.executed[i]
		mr.executed[i] += e
		s.Events[i] += e
		if e > most {
			most = e
		}
	}
	s.Critical += most
}

// busyWorkers reports whether zero, one or at least two (returned as 2)
// workers have a shard with work in this window; always at most one when
// the runner may not or cannot go parallel.
func (mr *MultiRunner) busyWorkers(busyShards int) int {
	if !mr.Parallel || mr.nw < 2 || busyShards < 2 {
		return min(busyShards, 1)
	}
	first := -1
	for i, at := range mr.next {
		if at < mr.limits[i] {
			if k := i % mr.nw; first < 0 {
				first = k
			} else if k != first {
				return 2
			}
		}
	}
	return 1
}

// runShards runs worker k's shards.
func (mr *MultiRunner) runShards(k int) {
	for i := k; i < len(mr.Lists); i += mr.nw {
		mr.runShard(i)
	}
}

// runShard runs shard i up to its horizon, after moving what the last
// exchange published to it into its list.
func (mr *MultiRunner) runShard(i int) {
	if mr.Inbound != nil {
		mr.Inbound.DrainInbound(i)
	}
	mr.Lists[i].RunBefore(mr.limits[i])
}

// publish stores the next epoch with the given command and returns it. A
// park epoch wakes nobody: a worker that is already parked stays so.
func (mr *MultiRunner) publish(cmd uint64) uint64 {
	mr.seq++
	epoch := mr.seq<<2 | cmd
	mr.epoch.Store(epoch)
	mr.spinning = cmd == epochRun
	if cmd != epochPark {
		for _, w := range mr.workers {
			w.unpark()
		}
	}
	return epoch
}

// startWorkers spawns workers 1..nw-1.
func (mr *MultiRunner) startWorkers() {
	mr.workers = make([]*shardWorker, mr.nw-1)
	seen := mr.epoch.Load()
	for k := range mr.workers {
		w := &shardWorker{parker: parker{wake: make(chan struct{}, 1)}}
		mr.workers[k] = w
		mr.exited.Add(1)
		go mr.work(k+1, w, seen)
	}
}

// work is worker k's loop: wait for an epoch newer than seen and obey it.
func (mr *MultiRunner) work(k int, w *shardWorker, seen uint64) {
	defer mr.exited.Done()
	for {
		spin := spinBudget
		if seen&epochCmd == epochPark {
			spin = 0
		}
		seen = w.await(&mr.epoch, seen, spin)
		switch seen & epochCmd {
		case epochStop:
			return
		case epochRun:
			mr.runShards(k)
			w.done.Store(seen)
			mr.coord.unpark()
		}
	}
}
