package sim

import (
	"fmt"
	"testing"
)

// BenchmarkEventListChurn measures raw scheduler throughput: schedule one
// event per step at a random-ish future offset, pop the earliest. This is
// the per-packet overhead floor of every simulation in the repository.
func BenchmarkEventListChurn(b *testing.B) {
	el := NewEventList()
	r := NewRand(1)
	// Keep a standing population of events, as real simulations do.
	for i := 0; i < 1024; i++ {
		el.At(Time(r.Intn(1_000_000)), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		el.After(Time(r.Intn(10_000))*Nanosecond, func() {})
		el.Step()
	}
}

type nopHandler struct{ n uint64 }

func (h *nopHandler) OnEvent(arg uint64) { h.n += arg }

// BenchmarkEventListChurnTyped is the same churn on the typed Handler path
// the hot call-sites use — no closure per event — at three standing
// populations: a small incast, the median pending count of the benchmark's
// perm-ndp workload (sim.heap_depth_p50 = 1011), and a figure-scale FatTree.
func BenchmarkEventListChurnTyped(b *testing.B) {
	for _, pending := range []int{64, 1011, 8192} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			el := NewEventList()
			r := NewRand(1)
			h := &nopHandler{}
			// Offsets are drawn from the same range as the steady-state
			// pushes, scaled so the population stays near its start.
			span := 10 * pending
			for i := 0; i < pending; i++ {
				el.Schedule(Time(r.Intn(span))*Nanosecond, h, uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				el.ScheduleAfter(Time(r.Intn(span))*Nanosecond, h, uint64(i))
				el.Step()
			}
		})
	}
}

// BenchmarkTimerReset measures the restartable-timer path (every data
// packet sent by every transport resets an RTO timer).
func BenchmarkTimerReset(b *testing.B) {
	el := NewEventList()
	tm := NewTimer(el, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(Millisecond)
		if i%64 == 0 {
			el.RunUntil(el.Now() + Microsecond)
		}
	}
}

// BenchmarkRand measures the RNG used for every ECMP/path/coin decision.
func BenchmarkRand(b *testing.B) {
	r := NewRand(7)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
