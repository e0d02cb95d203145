package scenario

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"ndp/internal/core"
	"ndp/internal/topo"
)

// The engine's allocation discipline — pooled flow state, arena packets,
// typed events in place of closures, rings and scoreboards that stop growing
// once they fit the window — is guarded here, by counting what the runtime
// actually allocated. Both tests run one Spec twice, once short and once
// three times as long, and judge the difference in runtime.MemStats.Mallocs
// (and, for churn, TotalAlloc): topology, hosts, pools and first-use growth
// are the same on both sides and cancel, what remains is what the extra
// simulated time cost. A budget below is a measurement plus slack, pinned
// per row; docs/memory.md "Allocation discipline is a test" says how to read
// a failure and when to re-pin.

// allocsDuring runs spec and returns its Metrics and the heap objects and
// bytes the process allocated meanwhile. Neither test is parallel, so
// nothing else in the test binary is running.
func allocsDuring(t *testing.T, spec Spec) (m *Metrics, objects, bytes int64) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Run(spec)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return m, int64(after.Mallocs - before.Mallocs), int64(after.TotalAlloc - before.TotalAlloc)
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
				_, short, _ := allocsDuring(t, spec.With(WithWindow(3*time.Millisecond)))
				m, long, _ := allocsDuring(t, spec.With(WithWindow(11*time.Millisecond)))
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
// completion records. The marginal bytes per completed flow are what a
// closed loop's memory grows by with simulated time: the completion records
// every transport keeps (docs/memory.md "Still grows with simulated time"),
// and any state a flow leaves behind.
func TestChurnAllocsPerFlow(t *testing.T) {
	skipUnlessCountable(t)
	rows := []struct {
		transport Transport
		budget    float64 // objects: measured (five runs, spread 0.001) plus slack
		// bytes: the highest of ten runs (-count=10) plus slack. The first
		// run in a test binary reads 20 to 35 lower on the ndp row, 1 to 8
		// on the others: its short half builds the process's first event
		// lists and arenas, which its long half then reuses.
		bytes float64
	}{
		// 0.031 objects, budget 0.04: no object per flow. What is left is
		// Sender and Receiver objects for the quarantine, which a longer run
		// fills further (with random destinations, a host's peak of
		// receivers waiting for their release keeps rising), the doublings
		// of its free-lists, and completion chunks. 0.034 while a receiver
		// waited out 2*MSL from its own completion, not its sender's; 0.074
		// while every quarantined object held its working arrays, so that
		// each new one brought them; 0.086 with the time-wait table. 57.0
		// bytes, budget 64: the 24-byte completion record and the FCT slice
		// and sorted copy it feeds (56.5 with 8-byte free-list entries, 58.5
		// with the arrays in quarantine). 78.5 with a 32-byte record, the
		// FCTs copied once more and a demux beside the flow table; 212.2
		// before the time-wait table went and completions were merged
		// instead of copied.
		{NDP, 0.04, 64},
		// 0.004 and 0.001 objects: the sender carries its data source, and
		// a flow leaves nothing behind (0.021 and 0.016 while a recycled
		// receiver left a tombstone from a slab; 2.02 and 2.01 when each
		// was an object). 43.8 and 49.2 bytes, budgets 56 and 64: the
		// completion record and the FCT slice and sorted copy it feeds
		// (179.5 and 159.2 with a tombstone and its demux slot per flow).
		{TCP, 0.05, 56},
		{DCTCP, 0.05, 64},
		// 38.45: 3 per subflow plus 14 per connection. Per subflow the
		// bound liaIncrease, the OnComplete closure and the receiver's
		// OnData closure; per connection the Flow, its sources, two path
		// permutations, the Senders and Receivers slices doubling 1 -> 8,
		// and first window growth. The pooled senders and receivers are
		// reused: a subflow whose handshake finds the shared stream claimed
		// completes at once, so a group retires (54.55 while such a
		// subflow never completed and no group did; 73 before the sender
		// embedded its timer). No BENCHMARK.json workload churns MPTCP
		// flows. 1,240.2 bytes, budget 1,344: those objects (8,078.4 while
		// every subflow's sender and receiver were new).
		{MPTCP, 40, 1344},
		// 0.001 objects (0.002 at most), budget 0.01: a flow leaves
		// nothing behind (0.021 while the network listed every sender it
		// started, for a Close that stopped them all). 48.6 bytes (48.9 at
		// most), budget 56: the completion record and the FCT slice and
		// sorted copy it feeds (83.8 with that list, 102.9 with a 32-byte
		// record as well).
		{DCQCN, 0.01, 56},
		// 0.059 objects: no object per flow. What is left is Sender and
		// Receiver objects, with their windows, for the endpoints waiting to
		// be reused, which a longer run fills further (a host's peak of them
		// keeps rising), and their free-lists' doublings (0.086 with a
		// tombstone per recycled receiver, from the host's slab; 1.05 when
		// each was an object). 61.4 bytes, budget 72: those and the
		// completion record (174.7 with the tombstones and their demux
		// slots).
		{PHost, 0.1, 72},
	}
	for _, row := range rows {
		t.Run(string(row.transport), func(t *testing.T) {
			spec, err := Build("rpc", Params{Hosts: 64, Degree: 5, FlowSize: 1500}, WithTransport(row.transport))
			if err != nil {
				t.Fatal(err)
			}
			ms, short, shortB := allocsDuring(t, spec.With(WithDeadline(10*time.Millisecond)))
			ml, long, longB := allocsDuring(t, spec.With(WithDeadline(30*time.Millisecond)))
			flows := ml.FlowsCompleted - ms.FlowsCompleted
			if flows < 3000 {
				t.Fatalf("only %d more flows completed in the longer run", flows)
			}
			per, perB := float64(long-short)/float64(flows), float64(longB-shortB)/float64(flows)
			t.Logf("%.3f objects and %.1f bytes per flow over %d flows", per, perB, flows)
			if per > row.budget {
				t.Errorf("%.2f objects per churned flow (%d objects, %d flows), budget %.2f", per, long-short, flows, row.budget)
			}
			if perB > row.bytes {
				t.Errorf("%.1f bytes per churned flow (%d bytes, %d flows), budget %.0f", perB, longB-shortB, flows, row.bytes)
			}
		})
	}
}

// TestRPCDoneSize: a closed loop keeps one completion record per flow until
// the run ends, so a word more here is 0.5 MB at rpc-churn's 64k flows.
func TestRPCDoneSize(t *testing.T) {
	if size := unsafe.Sizeof(rpcDone{}); size != 24 {
		t.Errorf("rpcDone is %d bytes, want 24", size)
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
// shows as 1, ~0.1 or ~0.2 here. The bytes per added port are what a port
// costs at paper scale — its Port, its queue, its slot in the port list and
// its share of the hosts and switches — so a word added to any of them shows
// as 8 bytes or more.
func TestBuildAllocsPerPort(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector moves allocation counts")
	}
	cfg := topo.Config{Seed: 1, SwitchQueue: core.QueueFactory(core.DefaultSwitchConfig(9000), 1)}
	// Object budgets are measured plus slack. Bytes per added port are the
	// same on every run: 439.8, 429.2–429.3, 438.7 and 535.0 with a 192-byte
	// Port and SwitchQueue (505.1, 486.0, 505.3 and 607.7 with a 208-byte
	// Port and a 240-byte SwitchQueue). Each budget is 1.5 bytes above: a
	// word on a Port or a queue costs 6 to 8 bytes per added port, and one
	// on a Label, which every host and switch has, about 2.
	rows := []struct {
		name   string
		build  func(big bool) topo.Cluster
		budget float64 // objects
		bytes  float64
	}{
		{"fattree", func(big bool) topo.Cluster { return topo.NewFatTree(pick(big, 4, 8), cfg) }, 0.01, 441.3},
		{"fattree-oversub4", func(big bool) topo.Cluster { return topo.NewFatTreeOversub(pick(big, 4, 8), 4, cfg) }, 0.01, 430.8},
		{"twotier", func(big bool) topo.Cluster {
			return topo.NewTwoTier(pick(big, 4, 16), pick(big, 4, 8), pick(big, 2, 4), cfg)
		}, 0.01, 440.2},
		{"jellyfish", func(big bool) topo.Cluster { return topo.NewJellyfish(pick(big, 16, 64), 2, 4, 0, cfg) }, 0.02, 536.5},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var objs, bytes [2]float64
			var ports [2]int
			for i, big := range []bool{false, true} {
				objs[i], bytes[i] = buildCost(func() {
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
			added := float64(ports[1] - ports[0])
			per, perB := (objs[1]-objs[0])/added, (bytes[1]-bytes[0])/added
			t.Logf("%.0f objects and %.0f bytes for %d ports, %.0f and %.0f for %d: %.3f objects and %.1f bytes per added port",
				objs[0], bytes[0], ports[0], objs[1], bytes[1], ports[1], per, perB)
			if per > row.budget {
				t.Errorf("%.3f objects per added port, budget %.2f", per, row.budget)
			}
			if perB > row.bytes {
				t.Errorf("%.1f bytes per added port, budget %.1f", perB, row.bytes)
			}
		})
	}
}

// buildCost returns the heap objects and bytes one call of build allocates,
// averaged over three calls after one to warm up, with one P as
// testing.AllocsPerRun has it.
func buildCost(build func()) (objects, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 3; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / 3, float64(after.TotalAlloc-before.TotalAlloc) / 3
}

// pick returns small, or big when big is set.
func pick(big bool, small, large int) int {
	if big {
		return large
	}
	return small
}
