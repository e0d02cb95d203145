package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// This file tests what shards_ref_test.go's actor workload does not reach:
// the shape of the windows (TestWindowsDoNotLeapfrog), the worker barrier
// under dense, sparse and idle phases at every shard and worker count
// (TestBarrierStress), and the workers' lifetime (TestMultiRunnerClose).

// pulse fires every step from its first scheduling until `until`, and every
// `every`-th firing (outside the world's quiet interval) sends a message one
// lookahead ahead to the next shard.
type pulse struct {
	w     *pulseWorld
	shard int
	el    *EventList
	until Time
	fired int
	seq   uint64
	recv  int
}

const pulseStep = 25 * Nanosecond

func (p *pulse) OnEvent(arg uint64) {
	if arg == pulseMsg {
		p.recv++
		return
	}
	p.fired++
	if now := p.el.Now(); p.w.every > 0 && p.fired%p.w.every == 0 && (now < p.w.quiet[0] || now >= p.w.quiet[1]) {
		p.seq++
		p.w.send(p.shard, (p.shard+1)%len(p.w.pulses), p.el.Now()+refLookahead,
			DeliveryOrd(uint32(p.shard+1), p.seq))
	}
	if next := p.el.Now() + pulseStep; next <= p.until {
		p.el.Schedule(next, p, 0)
	}
}

const pulseMsg = 1

// pulseWorld is one pulse per shard joined by test-local mailboxes: a write
// side per directed pair, appended to by the source shard's goroutine, and
// — when twoPhase — a read side per pair that the exchange only publishes
// and the destination drains itself (Mailboxes), the fabric's protocol.
type pulseWorld struct {
	t        *testing.T
	lists    []*EventList
	pulses   []*pulse
	every    int
	quiet    [2]Time // no messages are sent in [quiet[0], quiet[1])
	twoPhase bool
	write    [][]pulseEntry // [src*n+dst]
	ready    [][]pulseEntry
	inbound  []Time
	sent     int
}

type pulseEntry struct {
	at  Time
	ord uint64
}

func newPulseWorld(t *testing.T, shards, every int, twoPhase bool) (*pulseWorld, *MultiRunner) {
	w := &pulseWorld{t: t, every: every, twoPhase: twoPhase,
		write: make([][]pulseEntry, shards*shards), ready: make([][]pulseEntry, shards*shards),
		inbound: make([]Time, shards)}
	for i := 0; i < shards; i++ {
		el := NewEventList()
		w.lists = append(w.lists, el)
		w.pulses = append(w.pulses, &pulse{w: w, shard: i, el: el})
	}
	mr := NewMultiRunner(w.lists, refLookahead, w.exchange)
	if twoPhase {
		mr.Inbound = w
	}
	return w, mr
}

func (w *pulseWorld) send(src, dst int, at Time, ord uint64) {
	if src == dst {
		w.lists[dst].ScheduleKeyed(at, ord, w.pulses[dst], pulseMsg)
		return
	}
	b := &w.write[src*len(w.lists)+dst]
	*b = append(*b, pulseEntry{at, ord})
}

func (w *pulseWorld) exchange() {
	n := len(w.lists)
	for dst := range w.inbound {
		w.inbound[dst] = Infinity
	}
	for i := range w.write {
		dst := i % n
		w.sent += len(w.write[i])
		if !w.twoPhase {
			w.inject(dst, w.write[i])
		} else {
			w.ready[i] = append(w.ready[i], w.write[i]...)
			for _, e := range w.ready[i] {
				w.inbound[dst] = min(w.inbound[dst], e.at)
			}
		}
		w.write[i] = w.write[i][:0]
	}
}

func (w *pulseWorld) inject(dst int, entries []pulseEntry) {
	for _, e := range entries {
		if e.at < w.lists[dst].Now() {
			w.t.Errorf("entry at %v reached shard %d after its clock passed %v", e.at, dst, w.lists[dst].Now())
		}
		w.lists[dst].ScheduleKeyed(e.at, e.ord, w.pulses[dst], pulseMsg)
	}
}

func (w *pulseWorld) InboundAt(shard int) Time { return w.inbound[shard] }

func (w *pulseWorld) DrainInbound(dst int) {
	n := len(w.lists)
	for src := 0; src < n; src++ {
		w.inject(dst, w.ready[src*n+dst])
		w.ready[src*n+dst] = w.ready[src*n+dst][:0]
	}
}

// start schedules shard i's pulse over [from, until].
func (w *pulseWorld) start(i int, from, until Time) {
	w.pulses[i].until = until
	w.lists[i].Schedule(from, w.pulses[i], 0)
}

// forceWorkers starts the barrier with nw goroutines whatever the machine
// has, so worker counts above the CPUs (and on a 1-CPU box, any at all) are
// still exercised; RunUntil keeps a worker set that is already running.
func forceWorkers(mr *MultiRunner, nw int) {
	mr.nw = nw
	mr.Parallel = true
	if nw > 1 {
		mr.startWorkers()
	}
}

// TestWindowsDoNotLeapfrog starts two dense shards 0.9 lookaheads apart. Left
// at their own safe horizons the skew flips sign every window and the shards
// take turns (critical share 0.75-0.95); ending every window at one aligned
// time removes it in the first window, after which both shards do the same
// work in each.
func TestWindowsDoNotLeapfrog(t *testing.T) {
	const until = 400 * refLookahead
	w, mr := newPulseWorld(t, 2, 0, false)
	mr.Parallel = false
	w.start(0, 0, until)
	w.start(1, refLookahead*9/10, until)
	mr.RunUntil(until)
	s := mr.WindowStats()
	if got, want := s.Events[0]+s.Events[1], mr.Executed(); got != want || want == 0 {
		t.Fatalf("WindowStats counts %d events, the lists executed %d", got, want)
	}
	if share := s.CriticalShare(); share > 0.60 {
		t.Errorf("critical share %.3f over %d windows (%d single-busy): the horizons leapfrog; want <= 0.60",
			share, s.Windows, s.SingleBusy)
	}
	if s.Windows > 2*uint64(until/refLookahead) {
		t.Errorf("%d windows for %d lookaheads of dense traffic: aligned windows should not be much shorter than one lookahead",
			s.Windows, until/refLookahead)
	}
}

// TestBarrierStress runs dense phases (every shard busy, cross-shard
// messages flowing) separated by a sparse one (shard 0 alone for hundreds
// of inline windows, which the workers spin and yield through) in several
// RunUntil slices (each return tells the workers to park, the next dense
// window re-wakes them), at shard counts below, at and above the worker
// count. Every firing and every message is accounted for; under -race this
// is also the check of the barrier's happens-before edges.
func TestBarrierStress(t *testing.T) {
	const (
		dense1 = 40 * refLookahead
		sparse = dense1 + 1000*refLookahead
		dense2 = sparse + 40*refLookahead
	)
	for shards := 1; shards <= 8; shards++ {
		for _, nw := range []int{0, 3} { // 0: what the machine gives
			if nw > 0 && shards != 3 && shards != 8 {
				continue // forced workers outnumber the Ps: slow, so sampled
			}
			for _, twoPhase := range []bool{false, true} {
				name := fmt.Sprintf("shards%d/workers%d/twoPhase=%v", shards, nw, twoPhase)
				w, mr := newPulseWorld(t, shards, 7, twoPhase)
				if nw > 0 {
					forceWorkers(mr, min(nw, shards))
				}
				w.quiet = [2]Time{dense1, sparse}
				w.start(0, 0, dense2)
				for i := 1; i < shards; i++ {
					w.start(i, Time(i)*pulseStep/2, dense1)
				}
				mr.RunUntil(dense1 / 2)
				mr.RunUntil(sparse)
				for i := 1; i < shards; i++ {
					w.start(i, sparse+Time(i)*pulseStep/2, dense2)
				}
				mr.RunUntil(dense2 - refLookahead)
				mr.RunUntil(dense2 + 2*refLookahead)
				mr.Close()

				recv := 0
				for i, p := range w.pulses {
					want := int(dense2/pulseStep) + 1
					if i > 0 {
						skew := Time(i) * pulseStep / 2
						want = int((dense1-skew)/pulseStep) + 1 + int((dense2-sparse-skew)/pulseStep) + 1
					}
					if p.fired != want {
						t.Errorf("%s: shard %d fired %d times, want %d", name, i, p.fired, want)
					}
					recv += p.recv
				}
				sent := 0
				for _, p := range w.pulses {
					sent += int(p.seq)
				}
				if recv != sent || (shards > 1 && w.sent != sent) {
					t.Errorf("%s: %d messages sent, %d crossed a mailbox, %d received", name, sent, w.sent, recv)
				}
				s := mr.WindowStats()
				var events uint64
				for _, e := range s.Events {
					events += e
				}
				if events != mr.Executed() {
					t.Errorf("%s: WindowStats counts %d events, the lists executed %d", name, events, mr.Executed())
				}
				if shards > 1 && s.SingleBusy < 300 {
					t.Errorf("%s: only %d single-busy windows: the sparse phase did not run inline", name, s.SingleBusy)
				}
			}
		}
	}
}

// TestMultiRunnerClose pins the workers' lifetime: they exist only once a
// window needs them, Close returns after the last one has exited (a leaked
// worker would hang the exited.Wait below until the test times out), a
// second Close is a no-op, and a closed runner restarts them on demand.
func TestMultiRunnerClose(t *testing.T) {
	const span = 20 * refLookahead
	w, mr := newPulseWorld(t, 4, 5, true)
	mr.Close() // never went parallel
	if mr.workers != nil {
		t.Fatal("a fresh runner has workers")
	}
	forceWorkers(mr, 2)
	from := Time(0)
	for round := 0; round < 3; round++ {
		for i := range w.pulses {
			w.start(i, from+Time(i), from+span)
		}
		mr.RunUntil(from + span + refLookahead)
		if round > 0 && len(mr.workers) != mr.nw-1 {
			t.Fatalf("round %d: %d workers for nw=%d (GOMAXPROCS %d, %d CPUs)",
				round, len(mr.workers), mr.nw, runtime.GOMAXPROCS(0), runtime.NumCPU())
		}
		mr.Close() // immediately after RunUntil: the workers were just told to park
		mr.exited.Wait()
		if mr.workers != nil {
			t.Fatalf("round %d: Close left workers behind", round)
		}
		mr.Close()
		from += span + 2*refLookahead
		if round == 0 {
			// From here on let RunUntil size and restart the worker set.
			mr.Parallel = true
		}
	}
	for i, p := range w.pulses {
		if want := 3 * (int(span-Time(i))/int(pulseStep) + 1); p.fired != want {
			t.Errorf("shard %d fired %d times across three runs, want %d", i, p.fired, want)
		}
	}
}
