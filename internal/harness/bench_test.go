package harness

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ndp/internal/sim"
)

func report(results ...BenchResult) *BenchReport {
	return &BenchReport{Schema: benchSchema, Results: results}
}

func TestCompareBench(t *testing.T) {
	base := report(
		BenchResult{Name: "a", AllocsPerOp: 1000},
		BenchResult{Name: "b", AllocsPerOp: 2000},
		BenchResult{Name: "old", EventsPerSec: 500}, // predates allocs_per_op
		BenchResult{Name: "gone", AllocsPerOp: 500},
	)
	// Within tolerance: 10% growth on a, improvement on b; host-time columns
	// are not judged, whatever they say.
	ok := report(
		BenchResult{Name: "a", AllocsPerOp: 1100, EventsPerSec: 1, WallMs: 1e6},
		BenchResult{Name: "b", AllocsPerOp: 1500},
	)
	if msgs := CompareBench(base, ok); len(msgs) != 0 {
		t.Errorf("within-tolerance run flagged: %v", msgs)
	}
	// Beyond tolerance on one case; a baseline row without alloc counts is
	// skipped.
	bad := report(
		BenchResult{Name: "a", AllocsPerOp: 1500},
		BenchResult{Name: "b", AllocsPerOp: 2000},
		BenchResult{Name: "old", AllocsPerOp: 999999},
	)
	msgs := CompareBench(base, bad)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "allocs/op") || !strings.Contains(msgs[0], "a:") {
		t.Errorf("50%% alloc regression on a not flagged correctly: %v", msgs)
	}
	// New cases absent from the baseline are not compared.
	fresh := report(BenchResult{Name: "new-case", AllocsPerOp: 1 << 30}, BenchResult{Name: "a", AllocsPerOp: 1000})
	if msgs := CompareBench(base, fresh); len(msgs) != 0 {
		t.Errorf("baseline-absent case compared: %v", msgs)
	}
	// Zero compared cases must fail loudly, not pass silently.
	for _, disjoint := range []*BenchReport{report(BenchResult{Name: "other", AllocsPerOp: 9}), report(BenchResult{Name: "old", AllocsPerOp: 9})} {
		if msgs := CompareBench(base, disjoint); len(msgs) != 1 || !strings.Contains(msgs[0], "compared nothing") {
			t.Errorf("empty comparison not flagged: %v", msgs)
		}
	}
}

func TestBenchReportRoundTrip(t *testing.T) {
	rep := RunBenchSuite([]BenchCase{
		{Name: "unit", Run: func() BenchCounts {
			return BenchCounts{Events: 42, PacketHops: 7, SerEndEvents: 3, CommandEvents: 5,
				Queue: sim.QueueStats{WheelPops: 30, HeapPops: 10, Runs: 4, MaxRun: 9, HeapCancelable: 8, HeapSparse: 2, PeakPending: 17}}
		}},
		{Name: "unit-shards2", Procs: 1, Run: func() BenchCounts {
			return BenchCounts{Events: 42, PacketHops: 7,
				Windows: sim.WindowStats{Windows: 5, SingleBusy: 1, Events: []uint64{30, 10}, Critical: 30}}
		}},
	}, "test", nil)
	if len(rep.Results) != 2 || rep.Results[0].Events != 42 || rep.Results[0].PacketHops != 7 {
		t.Fatalf("suite result mangled: %+v", rep.Results)
	}
	if r := rep.Results[0]; r.SerEndEvents != 3 || r.CommandEvents != 5 || r.EventsPerHop != 6 || !strings.Contains(rep.String(), " 6.00 ") {
		t.Errorf("row lost its events per hop: %+v\n%s", r, rep)
	}
	if rep.Results[0].Name != "unit" || rep.Schema != benchSchema || rep.GoVersion == "" {
		t.Fatalf("report metadata missing: %+v", rep)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBenchReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if r := rep.Results[1]; r.Windows != 5 || r.SingleBusy != 1 || r.CriticalShare != 0.75 || r.Procs != 1 ||
		!strings.Contains(rep.String(), "critical_share=0.750") {
		t.Errorf("sharded row lost its window counters: %+v\n%s", r, rep)
	}
	if rep.Results[0].Windows != 0 || strings.Count(rep.String(), "windows=") != 1 {
		t.Errorf("unsharded row must not print window counters:\n%s", rep)
	}
	if q := rep.Results[0].Queue; q == nil || q.WheelShare != 0.75 || q.MeanRun != 7.5 || q.HeapPushes != 10 ||
		!strings.Contains(rep.String(), "queue: wheel_share=0.750 mean_run=7.5 max_run=9 peak_pending=17 heap_pushes=10 (cancelable 8, beyond_span 0, active_bucket 0, sparse 2)") {
		t.Errorf("row lost its scheduler-tier counters: %+v\n%s", q, rep)
	}
	if rep.Results[1].Queue != nil || strings.Count(rep.String(), "queue:") != 1 {
		t.Errorf("a row that fired no events must not print tier counters:\n%s", rep)
	}
	if !reflect.DeepEqual(back.Results, rep.Results) || back.Label != "test" {
		t.Errorf("report changed over file round-trip:\nbefore %+v\nafter  %+v", rep, back)
	}
	if _, err := LoadBenchReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("loading a missing report should error")
	}
}
