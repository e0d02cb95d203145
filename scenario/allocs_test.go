package scenario

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ndp/internal/topo"
)

// The engine's allocation discipline — pooled flow state, arena packets,
// typed events in place of closures, rings and scoreboards that stop growing
// once they fit the window — is guarded here, by counting what the runtime
// actually allocated. Both tests run one Spec twice, once short and once
// three times as long, and judge the difference in runtime.MemStats.Mallocs:
// topology, hosts, pools and first-use growth are the same on both sides and
// cancel, what remains is what the extra simulated time cost. A budget below
// is a measurement plus slack, pinned per row; the README ("Allocation
// discipline is a test") says how to read a failure and when to re-pin.

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
		{NDP, 0.25},  // 0.086: no object per flow; time-wait and flow tables doubling, completion chunks
		{TCP, 2.2},   // 2.02: the data source and the recycled receiver's tombstone
		{DCTCP, 2.2}, // 2.01
		// 71.56, and not fixed here: 7 per subflow (the sender pool never
		// hits: a group retires only when all eight subflows complete, and a
		// one-packet flow uses one) plus 15 per connection; README
		// "Allocation discipline is a test" has the profile. No
		// BENCHMARK.json workload churns MPTCP flows, so a fix has nothing
		// to be measured against.
		{MPTCP, 73},
		{DCQCN, 0.25}, // 0.021
		{PHost, 1.25}, // 1.06: the recycled receiver's tombstone
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
