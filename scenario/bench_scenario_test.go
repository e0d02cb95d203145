package scenario

import (
	"encoding/json"
	"testing"
)

// TestBenchSuite checks the pinned suite's invariants: every case builds a
// valid Spec, names are unique (they are the comparison key across
// BENCH_*.json files), and a representative case actually produces engine
// counts.
func TestBenchSuite(t *testing.T) {
	cases := BenchSuite()
	if len(cases) == 0 {
		t.Fatal("empty bench suite")
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if c.Name == "" || c.Run == nil {
			t.Fatalf("malformed case: %+v", c)
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
		counts := c.Run()
		if counts.Events <= 0 || counts.PacketHops <= 0 {
			t.Errorf("case %s produced no engine counts: %+v", c.Name, counts)
		}
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
	if sstats != pstats {
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
	if acrossShards(shstats) != acrossShards(sstats) {
		t.Errorf("engine stats differ between shards=1 and shards=2: %+v vs %+v", sstats, shstats)
	}
}
