package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ndp/scenario"
)

func report(results ...BenchResult) *BenchReport {
	return &BenchReport{Schema: benchSchema, Results: results}
}

func TestCompareBench(t *testing.T) {
	base := report(
		BenchResult{Name: "a", AllocsPerOp: 1000, BytesPerOp: 100_000},
		BenchResult{Name: "b", AllocsPerOp: 2000}, // no bytes_per_op
		BenchResult{Name: "old", WallMs: 5},       // predates allocs_per_op
		BenchResult{Name: "gone", AllocsPerOp: 500},
	)
	// Within tolerance: 10% growth on a, improvement on b; host time is not
	// judged, whatever it says.
	ok := report(
		BenchResult{Name: "a", AllocsPerOp: 1100, WallMs: 1e6},
		BenchResult{Name: "b", AllocsPerOp: 1500},
	)
	if msgs := compareBench(base, ok); len(msgs) != 0 {
		t.Errorf("within-tolerance run flagged: %v", msgs)
	}
	// Beyond tolerance on one case; a baseline row without alloc counts is
	// skipped.
	bad := report(
		BenchResult{Name: "a", AllocsPerOp: 1500},
		BenchResult{Name: "b", AllocsPerOp: 2000},
		BenchResult{Name: "old", AllocsPerOp: 999999},
	)
	msgs := compareBench(base, bad)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "allocs/op") || !strings.Contains(msgs[0], "a:") {
		t.Errorf("50%% alloc regression on a not flagged correctly: %v", msgs)
	}
	// Bytes are gated like allocations: 30% more on a is flagged, 10% is
	// not, and b's baseline has no bytes to compare against.
	heavy := report(
		BenchResult{Name: "a", AllocsPerOp: 1000, BytesPerOp: 130_000},
		BenchResult{Name: "b", AllocsPerOp: 2000, BytesPerOp: 1 << 30},
	)
	msgs = compareBench(base, heavy)
	if len(msgs) != 1 || !strings.HasPrefix(msgs[0], "a: bytes/op regressed 30.0%") {
		t.Errorf("30%% bytes regression on a not flagged correctly: %v", msgs)
	}
	if msgs := compareBench(base, report(BenchResult{Name: "a", AllocsPerOp: 1000, BytesPerOp: 110_000})); len(msgs) != 0 {
		t.Errorf("10%% bytes growth flagged: %v", msgs)
	}
	// New cases absent from the baseline are not compared.
	fresh := report(BenchResult{Name: "new-case", AllocsPerOp: 1 << 30}, BenchResult{Name: "a", AllocsPerOp: 1000})
	if msgs := compareBench(base, fresh); len(msgs) != 0 {
		t.Errorf("baseline-absent case compared: %v", msgs)
	}
	// Zero compared cases must fail loudly, not pass silently.
	for _, disjoint := range []*BenchReport{report(BenchResult{Name: "other", AllocsPerOp: 9}), report(BenchResult{Name: "old", AllocsPerOp: 9})} {
		if msgs := compareBench(base, disjoint); len(msgs) != 1 || !strings.Contains(msgs[0], "compared nothing") {
			t.Errorf("empty comparison not flagged: %v", msgs)
		}
	}
}

// schema1 is two rows in the shape BENCH_3 to BENCH_21 were written in: the
// counts flat beside stored quotients, "windows" a number and "queue" a
// summary. The second row predates ser_end_events and command_events.
const schema1 = `{"schema": 1, "label": "old", "results": [
 {"name": "a", "wall_ms": 3.2, "events": 100, "packet_hops": 80, "ser_end_events": 7, "command_events": 0,
  "events_per_sec": 31250, "allocs_per_op": 1000, "windows": 12, "shard_events": [60, 40],
  "queue": {"wheel_share": 0.9, "heap_pushes": 10}},
 {"name": "b", "wall_ms": 1.0, "events": 50, "packet_hops": 40, "allocs_per_op": 2000}]}`

func TestCompareCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_1.json")
	if err := os.WriteFile(path, []byte(schema1), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := loadBenchReport(path)
	if err != nil {
		t.Fatalf("a schema-1 report must keep loading: %v", err)
	}
	if len(base.Results) != 2 || base.Results[1].AllocsPerOp != 2000 || base.Results[0].Engine.PacketHops != 80 {
		t.Fatalf("schema-1 rows mangled: %+v", base.Results)
	}
	row := func(name string, events, hops, serEnds, commands int64) BenchResult {
		return BenchResult{Name: name, AllocsPerOp: 1, Engine: scenario.RunStats{
			Events: events, PacketHops: hops, SerEndEvents: serEnds, CommandEvents: commands}}
	}
	// Equal where the baseline recorded a count; b's baseline row has no
	// ser_end_events or command_events, which is not a move. A case the
	// baseline lacks is not a row.
	same := report(row("a", 100, 80, 7, 0), row("b", 50, 40, 9, 4), row("new", 1, 1, 1, 1))
	if moved, rows := compareCounts(base, same); len(moved) != 0 || rows != 2 {
		t.Errorf("equal counts: moved %v on %d rows, want none on 2", moved, rows)
	}
	// A recorded zero is a count like any other (pHost defers no commands).
	diff := report(row("a", 90, 80, 7, 3), row("b", 50, 40, 9, 4))
	moved, rows := compareCounts(base, diff)
	if rows != 2 || len(moved) != 1 || moved[0] != "a: events 100 -> 90, command_events 0 -> 3" {
		t.Errorf("moved counts on a: got %q on %d rows", moved, rows)
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	spec, err := scenario.Build("incast", scenario.Params{Hosts: 16, Degree: 4, FlowSize: 45_000},
		scenario.WithDeadline(5*time.Millisecond), scenario.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := runBenchSuite([]scenario.BenchCase{
		{Name: "unit", Spec: spec},
		{Name: "unit-shards2", Procs: 1, Spec: spec.With(scenario.WithShards(2))},
	}, "test")
	if len(rep.Results) != 2 || rep.Schema != benchSchema || rep.GoVersion == "" {
		t.Fatalf("report metadata missing: %+v", rep)
	}
	one, two := rep.Results[0], rep.Results[1]
	if one.Name != "unit" || one.Engine.Events <= 0 || one.Engine.PacketHops <= 0 || one.AllocsPerOp <= 0 || one.WallMs <= 0 {
		t.Errorf("row lost its measurements: %+v", one)
	}
	if two.Procs != 1 || two.Engine.Windows.Windows == 0 || two.Engine.PacketHops != one.Engine.PacketHops {
		t.Errorf("sharded row lost its pinned procs, its windows or its twin's hops: %+v", two)
	}
	text := rep.String()
	if strings.Count(text, "engine: events=") != 2 || strings.Count(text, "queue: wheel_share=") != 2 {
		t.Errorf("every row prints its engine block:\n%s", text)
	}
	if strings.Count(text, "windows=") != 1 {
		t.Errorf("only the sharded row prints window counters:\n%s", text)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, derived := range []string{"events_per_sec", "packets_per_sec", "ns_per_event", "events_per_hop"} {
		if strings.Contains(string(blob), derived) {
			t.Errorf("report stores %s, a quotient of fields it already stores", derived)
		}
	}
	back, err := loadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("report changed over file round-trip:\nbefore %+v\nafter  %+v", rep, back)
	}
	if moved, rows := compareCounts(back, rep); len(moved) != 0 || rows != 2 {
		t.Errorf("a report against itself: moved %v on %d rows", moved, rows)
	}
	if _, err := loadBenchReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing report should error")
	}
}
