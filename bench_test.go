// The one Go benchmark of the module root measures what no other surface
// does: the sweep-job worker pool's effect on one experiment. What each
// experiment costs is timed by benchmark/'s `figures` workload
// (harness.exp_ms.<id>), and its tables and claims are checked by
// harness.TestAllExperimentsClaims.
//
//	go test -run '^$' -bench ParallelSweep -benchmem
package ndp

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkParallelSweep measures the wall-clock effect of the sweep-job
// worker pool on fig14 (four transport simulations per run) at small
// scale: workers=1 is the serial harness, workers=GOMAXPROCS is the
// default. The ratio of the two is the parallel speedup.
func BenchmarkParallelSweep(b *testing.B) {
	workers := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		workers = append(workers, n)
	}
	for _, w := range workers {
		b.Run(fmt.Sprintf("fig14/workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := Run("fig14", Options{Scale: 0.2, Seed: uint64(i + 1), Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Tables) == 0 {
					b.Fatal("fig14 produced no tables")
				}
			}
		})
	}
}
