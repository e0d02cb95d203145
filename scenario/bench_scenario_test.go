package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ndp/internal/sim"
)

// TestBenchSuite checks the pinned suites' invariants: every case carries a
// valid Spec, names are unique (they are the comparison key across
// BENCH_*.json files), and a representative case actually produces engine
// counts.
func TestBenchSuite(t *testing.T) {
	cases := append(BenchSuite(), BenchScalingSuite()...)
	if len(cases) != 22 {
		t.Fatalf("%d bench cases, want the 14 of the suite and the 8 scaling points", len(cases))
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if c.Name == "" {
			t.Fatalf("malformed case: %+v", c)
		}
		if err := Validate(c.Spec); err != nil {
			t.Errorf("case %s: %v", c.Name, err)
		}
		if seen[c.Name] {
			t.Errorf("duplicate bench case name %q", c.Name)
		}
		seen[c.Name] = true
	}
	if testing.Short() {
		return
	}
	for _, c := range cases {
		if c.Name != "random-tiny" {
			continue
		}
		_, stats, err := RunWithStats(c.Spec)
		if err != nil || stats.Events <= 0 || stats.PacketHops <= 0 || stats.Queue.WheelPops == 0 {
			t.Errorf("case %s produced no engine counts: %+v, %v", c.Name, stats, err)
		}
	}
}

// TestRunStatsString pins the one text rendering of the engine block, which
// `ndpsim -scenario` and every `-bench` row print: the quotients are computed
// here, and only a sharded run has a windows line.
func TestRunStatsString(t *testing.T) {
	s := RunStats{Events: 42, PacketHops: 7, SerEndEvents: 3, CommandEvents: 5, ArenaPeak: 11,
		Queue: sim.QueueStats{WheelPops: 30, HeapPops: 10, Runs: 4, MaxRun: 9, HeapBeyondSpan: 8, HeapSparse: 2, PeakPending: 17}}
	want := "engine: events=42 ser_end_events=3 command_events=5 pkt_hops=7 ev/hop=6.00 leaked=0 arena_peak=11\n" +
		"        queue: wheel_share=0.750 mean_run=7.5 max_run=9 peak_pending=17 heap_pushes=10 (beyond_span 8, active_bucket 0, sparse 2)\n"
	if got := s.String(); got != want {
		t.Errorf("unsharded block:\n%s\nwant:\n%s", got, want)
	}
	var sum RunStats
	sum.Add(s)
	sum.Add(RunStats{Events: 8, PacketsLeaked: 1, ArenaPeak: 6,
		Windows: sim.WindowStats{Windows: 5, SingleBusy: 1, Events: []uint64{30, 10}, Critical: 30}})
	if sum.Events != 50 || sum.PacketsLeaked != 1 || sum.ArenaPeak != 11 || sum.Queue.MaxRun != 9 || sum.Windows.Windows != 5 {
		t.Errorf("Add lost a field: %+v", sum)
	}
	if got := sum.String(); !strings.HasSuffix(got, "        windows=5 single_busy=1 critical_share=0.750 shard_events=[30 10]\n") {
		t.Errorf("sharded block lost its windows line:\n%s", got)
	}
}

// TestBenchSuiteDeterminism extends the public determinism guarantee to a
// bench-suite scenario on the rewritten scheduler: the same pinned spec run
// with Workers=1 and Workers=8 (multiple repeats in flight) must produce
// bit-identical Metrics AND identical engine stats. Run under `go test
// -race` in CI, this also proves the parallel pool shares no scheduler
// state across simulations.
func TestBenchSuiteDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := benchSpec("incast", Params{Hosts: 16, Degree: 8, FlowSize: 90_000}).
		With(WithRepeats(6))
	serial, sstats, err := RunWithStats(spec.With(WithWorkers(1)))
	if err != nil {
		t.Fatal(err)
	}
	parallel, pstats, err := RunWithStats(spec.With(WithWorkers(8)))
	if err != nil {
		t.Fatal(err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(parallel)
	if string(sj) != string(pj) {
		t.Errorf("bench scenario metrics differ between 1 and 8 workers:\n--- serial ---\n%s\n--- parallel ---\n%s", sj, pj)
	}
	if !reflect.DeepEqual(sstats, pstats) {
		t.Errorf("engine stats differ between 1 and 8 workers: serial %+v, parallel %+v", sstats, pstats)
	}
	if sstats.Events <= 0 || sstats.PacketHops <= 0 {
		t.Errorf("engine stats empty: %+v", sstats)
	}
	// The sharded engine must agree too — a bench-suite spec run with two
	// shards (windowed multi-list runner, repeats still on the job pool)
	// reproduces the single-list result bit for bit, and its event count
	// once the cut ports' serialization ends are set aside. Under -race in CI
	// this doubles as the shard data-race gate on a pinned workload.
	sharded, shstats, err := RunWithStats(spec.With(WithWorkers(2), WithShards(2)))
	if err != nil {
		t.Fatal(err)
	}
	hj, _ := json.Marshal(sharded)
	if string(sj) != string(hj) {
		t.Errorf("bench scenario metrics differ between shards=1 and shards=2:\n--- single ---\n%s\n--- sharded ---\n%s", sj, hj)
	}
	if !reflect.DeepEqual(acrossShards(shstats), acrossShards(sstats)) {
		t.Errorf("engine stats differ between shards=1 and shards=2: %+v vs %+v", sstats, shstats)
	}
}
