package scenario

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ndp/internal/core"
	"ndp/internal/topo"
)

// The engine's allocation discipline — pooled flow state, arena packets,
// typed events in place of closures, rings and scoreboards that stop growing
// once they fit the window — is guarded here, by counting what the runtime
// actually allocated. Both tests run one Spec twice, once short and once
// three times as long, and judge the difference in runtime.MemStats.Mallocs:
// topology, hosts, pools and first-use growth are the same on both sides and
// cancel, what remains is what the extra simulated time cost. A budget below
// is a measurement plus slack, pinned per row; docs/memory.md "Allocation
// discipline is a test" says how to read a failure and when to re-pin.

// mallocsDuring runs spec and returns its Metrics and the heap objects the
// process allocated meanwhile. Neither test is parallel, so nothing else in
// the test binary is running.
func mallocsDuring(t *testing.T, spec Spec) (*Metrics, int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Run(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return m, int64(after.Mallocs - before.Mallocs)
}

// skipUnlessCountable skips under -short (these run real simulations) and
// under the race detector, whose instrumentation allocates on its own
// schedule (the ndp rows read -54..20 there, not -3..2); CI runs both tests
// in a step of their own without it.
func skipUnlessCountable(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	if raceEnabled {
		t.Skip("the race detector moves allocation counts")
	}
}

// TestSteadyStateAllocs: sixteen unbounded flows on FatTree(4) keep every
// port busy; 8 ms more of that may allocate almost nothing, on one event
// list or through the two-shard runner's mailboxes and barrier. A per-packet or per-event
// allocation anywhere on a handler, queue, pacer, timer or cross-shard path
// shows here as tens of thousands of objects.
func TestSteadyStateAllocs(t *testing.T) {
	skipUnlessCountable(t)
	// Budgets are the measured marginal objects (ten runs each, 2 vCPU, the
	// two shard counts within 10 of each other) plus slack. Rows above zero
	// are first-use growth still tailing off after 4 ms — cwnd opening puts
	// more packets in flight, so an arena chunk, a flight ring or a window
	// doubles once more; MPTCP has 128 subflows doing that — and fall
	// towards zero as the run lengthens (tcp 30, 16, -2 and mptcp 335, 212,
	// 135 for successive 8 ms steps).
	rows := []struct {
		transport Transport
		budget    int64
	}{
		{NDP, 32},    // -3..2
		{TCP, 96},    // 30..41
		{DCTCP, 96},  // 34..46
		{MPTCP, 512}, // 336..341
		{DCQCN, 32},  // -4..4
		{PHost, 64},  // 15..20
	}
	for _, row := range rows {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards%d", row.transport, shards), func(t *testing.T) {
				spec := New(WithTransport(row.transport), WithShards(shards), WithWarmup(time.Millisecond))
				_, short := mallocsDuring(t, spec.With(WithWindow(3*time.Millisecond)))
				m, long := mallocsDuring(t, spec.With(WithWindow(11*time.Millisecond)))
				if m.UtilizationPct < 20 {
					t.Fatalf("utilization %.1f%%: the run did not keep the fabric busy", m.UtilizationPct)
				}
				t.Logf("%d objects", long-short)
				if long-short > row.budget {
					t.Errorf("8 ms more steady state allocated %d objects (4 ms run %d, 12 ms run %d), budget %d",
						long-short, short, long, row.budget)
				}
			})
		}
	}
}

// TestChurnAllocsPerFlow: the closed-loop rpc scenario at the shape of the
// benchmark's rpc-churn workload (five one-packet connections per host on
// the 4:1 oversubscribed FatTree, 64 hosts) starts and retires a few
// thousand flows in 20 ms more. The marginal objects per completed flow
// cover the pools' take and retire paths, StartFlow, the deferred
// registration and teardown commands (values carried by the pooled flow
// state: none of them may cost an object), FlowTable growth and the
// completion records.
func TestChurnAllocsPerFlow(t *testing.T) {
	skipUnlessCountable(t)
	rows := []struct {
		transport Transport
		budget    float64 // measured (five runs, spread 0.001) plus slack
	}{
		{NDP, 0.25}, // 0.086: no object per flow; time-wait and flow tables doubling, completion chunks
		// 0.021 and 0.015: the sender carries its data source, and tombstones
		// come from the pool's slab (2.02 and 2.01 when each was an object).
		{TCP, 0.25},
		{DCTCP, 0.25},
		// 54.55, and not fixed here: 5 per subflow (the sender pool never
		// hits: a group retires only when all eight subflows complete, and a
		// one-packet flow uses one) plus 14 per connection: per subflow a
		// tcp.Sender, its bound liaIncrease, its OnComplete closure, a
		// receiver and its OnData closure; per connection the Flow, its
		// sources, two path permutations, the Senders and Receivers slices
		// doubling 1 -> 8, and first window growth. No BENCHMARK.json
		// workload churns MPTCP flows, so a fix has nothing to be measured
		// against. 73 until the sender embedded its timer (two objects
		// fewer per subflow).
		{MPTCP, 57},
		{DCQCN, 0.25}, // 0.021
		{PHost, 0.25}, // 0.086: tombstones from the host's slab (1.05 when each was an object)
	}
	for _, row := range rows {
		t.Run(string(row.transport), func(t *testing.T) {
			spec, err := Build("rpc", Params{Hosts: 64, Degree: 5, FlowSize: 1500}, WithTransport(row.transport))
			if err != nil {
				t.Fatal(err)
			}
			ms, short := mallocsDuring(t, spec.With(WithDeadline(10*time.Millisecond)))
			ml, long := mallocsDuring(t, spec.With(WithDeadline(30*time.Millisecond)))
			flows := ml.FlowsCompleted - ms.FlowsCompleted
			if flows < 3000 {
				t.Fatalf("only %d more flows completed in the longer run", flows)
			}
			per := float64(long-short) / float64(flows)
			t.Logf("%.3f objects per flow over %d flows", per, flows)
			if per > row.budget {
				t.Errorf("%.2f objects per churned flow (%d objects, %d flows), budget %.2f", per, long-short, flows, row.budget)
			}
		})
	}
}

// countingCommand is a deferred command as product code writes them: a
// handler over state its emitter owns.
type countingCommand struct{ fired, sum uint64 }

func (c *countingCommand) OnEvent(arg uint64) { c.fired++; c.sum += arg }

// TestDeferAllocatesNothing: a deferred command is a value — a handler and a
// word — on the same-shard path (a keyed event) and on the cross-shard one
// (a mailbox entry, an inbox slot, a keyed event), so emitting and firing
// one allocates nothing. A closure-shaped command cost one object per flow
// start, 63 % of what a churn iteration allocated.
func TestDeferAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves allocation counts")
	}
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			ft := topo.NewFatTree(4, topo.Config{Shards: shards})
			defer ft.Close()
			from, to := 0, ft.NumHosts()-1
			if crosses := ft.ShardOfHost(from) != ft.ShardOfHost(to); crosses != (shards > 1) {
				t.Fatalf("hosts %d and %d: crossing a shard cut = %v at %d shards", from, to, crosses, shards)
			}
			cmd := &countingCommand{}
			emitAndFire := func() {
				at := ft.HostList()[from].EventList().Now() + ft.MinPathDelay(from, to)
				ft.Defer(from, to, at, cmd, 3)
				ft.Runner().RunUntil(at)
			}
			// First use grows the mailbox, the inbox's slots and the
			// scheduler's buckets; that is set-up, not a cost per command.
			for i := 0; i < 1000; i++ {
				emitAndFire()
			}
			before := cmd.fired
			const runs = 1000
			if avg := testing.AllocsPerRun(runs, emitAndFire); avg != 0 {
				t.Errorf("Defer plus its firing allocates %.2f objects", avg)
			}
			if fired := cmd.fired - before; fired != runs+1 || cmd.sum != 3*cmd.fired {
				t.Errorf("%d commands fired in %d runs (argument sum %d)", fired, runs+1, cmd.sum)
			}
			if got := ft.CommandEvents(); got != int64(cmd.fired) {
				t.Errorf("CommandEvents = %d, %d commands emitted", got, cmd.fired)
			}
		})
	}
}

// TestBuildAllocsPerPort: a topology is built from one slab per kind of
// component — hosts, switches, ports, their port lists, queues — and formats
// no names, so what a build allocates grows with the kinds, not with the
// ports. Each shape is built at two sizes with NDP's switch queues (the
// heaviest: a trim coin each) and return-to-sender wiring; the objects the
// larger build makes beyond the smaller, per port it adds, must stay near
// zero. A per-port, per-switch or per-host object anywhere in a builder
// shows as 1, ~0.1 or ~0.2 here.
func TestBuildAllocsPerPort(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves allocation counts")
	}
	cfg := topo.Config{Seed: 1, SwitchQueue: core.QueueFactory(core.DefaultSwitchConfig(9000), 1)}
	rows := []struct {
		name   string
		build  func(big bool) topo.Cluster
		budget float64 // measured plus slack
	}{
		{"fattree", func(big bool) topo.Cluster { return topo.NewFatTree(pick(big, 4, 8), cfg) }, 0.01},
		{"fattree-oversub4", func(big bool) topo.Cluster { return topo.NewFatTreeOversub(pick(big, 4, 8), 4, cfg) }, 0.01},
		{"twotier", func(big bool) topo.Cluster {
			return topo.NewTwoTier(pick(big, 4, 16), pick(big, 4, 8), pick(big, 2, 4), cfg)
		}, 0.01},
		{"jellyfish", func(big bool) topo.Cluster { return topo.NewJellyfish(pick(big, 16, 64), 2, 4, 0, cfg) }, 0.02},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var objs [2]float64
			var ports [2]int
			for i, big := range []bool{false, true} {
				objs[i] = testing.AllocsPerRun(3, func() {
					c := row.build(big)
					core.WireBounce(c.SwitchList())
					c.Close()
				})
				c := row.build(big)
				ports[i] = len(c.HostList())
				for _, sw := range c.SwitchList() {
					ports[i] += len(sw.Ports)
				}
			}
			per := (objs[1] - objs[0]) / float64(ports[1]-ports[0])
			t.Logf("%.0f objects for %d ports, %.0f for %d: %.3f per added port", objs[0], ports[0], objs[1], ports[1], per)
			if per > row.budget {
				t.Errorf("%.3f objects per added port, budget %.2f", per, row.budget)
			}
		})
	}
}

// pick returns small, or big when big is set.
func pick(big bool, small, large int) int {
	if big {
		return large
	}
	return small
}
