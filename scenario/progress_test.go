package scenario

import (
	"reflect"
	"sync"
	"testing"
)

// TestProgressDoesNotPerturb is the determinism story of the progress
// hook: installing one slices the engine's RunUntil advance into segments,
// and that slicing must be invisible — Metrics AND engine event counts
// bit-identical to an unhooked run — for the single-list engine, the
// sharded runner, and multi-repeat runs on a parallel job pool.
func TestProgressDoesNotPerturb(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	base := []Spec{
		mustBuild(t, "incast", Params{Hosts: 16, Degree: 8, FlowSize: 45_000}),
		mustBuild(t, "permutation", Params{Hosts: 16}).With(WithShards(2)),
		mustBuild(t, "rpc", Params{Hosts: 16, Degree: 2}).With(WithRepeats(2), WithWorkers(2)),
	}
	for _, spec := range base {
		spec := spec
		t.Run(spec.Name()+"/"+spec.Workload.Kind, func(t *testing.T) {
			plain, plainStats, err := RunWithStats(spec)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var events []Progress
			hooked, hookedStats, err := RunWithStats(spec.With(WithProgress(func(p Progress) {
				mu.Lock()
				events = append(events, p)
				mu.Unlock()
			})))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, hooked) {
				t.Errorf("progress hook perturbed Metrics:\nplain  %+v\nhooked %+v", plain, hooked)
			}
			// Two RunStats fields of a sharded run legitimately depend on
			// where RunUntil returns: a slice boundary ends a window early
			// (Windows), and the tier an event waits in follows from where
			// its window ended (Queue). What was simulated — events by
			// class, hops, leaks — does not, and on one event list nothing does.
			if spec.Shards > 1 {
				hookedStats.Queue, hookedStats.Windows = plainStats.Queue, plainStats.Windows
			}
			if !reflect.DeepEqual(plainStats, hookedStats) {
				t.Errorf("progress hook perturbed engine stats: plain %+v hooked %+v", plainStats, hookedStats)
			}
			if len(events) < progressSlices {
				t.Fatalf("hook observed %d events, want >= %d", len(events), progressSlices)
			}
			repeats := spec.Repeats
			if repeats == 0 {
				repeats = 1
			}
			var poolDone int
			for _, p := range events {
				if p.Repeats != repeats {
					t.Fatalf("event reports %d repeats, spec has %d", p.Repeats, repeats)
				}
				if p.Repeat == -1 {
					if p.Done > poolDone {
						poolDone = p.Done
					}
				} else if p.Frac < 0 || p.Frac > 1.0000001 {
					t.Fatalf("per-repeat frac out of range: %+v", p)
				}
				if o := p.Overall(); o < 0 || o > 1.0000001 {
					t.Fatalf("Overall out of range: %+v -> %g", p, o)
				}
			}
			if poolDone != repeats {
				t.Errorf("pool-level completions reached %d, want %d", poolDone, repeats)
			}
			final := events[len(events)-1]
			if final.Repeat != -1 || final.Done != repeats {
				t.Errorf("last observation is not the pool completing: %+v", final)
			}
		})
	}
}

func mustBuild(t *testing.T, name string, p Params) Spec {
	t.Helper()
	spec, err := Build(name, p)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
