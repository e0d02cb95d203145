package sim

import (
	"fmt"
	"testing"
)

type nopHandler struct{ n uint64 }

func (h *nopHandler) OnEvent(arg uint64) { h.n += arg }

// BenchmarkEventListChurnTyped measures raw scheduler throughput: schedule
// one event per step at a random-ish future offset, pop the earliest, at
// three standing populations: a small incast, the median pending count of
// the benchmark's perm-ndp workload (sim.heap_depth_p50 = 1011), and a
// figure-scale FatTree.
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

// lockstepMix is the push-delta mix measured on the benchmark's perm-ndp
// workload at 10 Gb/s, in percent of pushes: a 64-byte header's
// serialization, a link delay plus a header, a 9 KB data packet (its
// serialization, plus up to 0.5 us of link), and "now". The uniform offsets
// of BenchmarkEventListChurnTyped hide what this shows: senders in lockstep
// give whole groups of events the same timestamp.
var lockstepMix = []struct {
	pct   int
	delta Time
}{
	{63, 51200 * Picosecond},
	{17, 550 * Nanosecond},
	{19, 7200 * Nanosecond},
	{1, 0},
}

// lockstepEmitter is one sender: lockstepChains self-rescheduling events
// walking the shuffled mix, and a ms-scale RTO timer re-armed on every data
// packet (the long delta) that therefore never fires.
type lockstepEmitter struct {
	el     *EventList
	deltas []Time // the mix, one entry per percent, shuffled
	data   Time   // deltas at or above this are data packets
	skew   Time   // this emitter's share of the 0.5 us link-delay spread
	pos    [lockstepChains]int
	rto    Timer
}

const (
	lockstepEmitters = 128
	lockstepChains   = 7 // x 128 emitters + 128 timers = 1024 pending (perm-ndp's median is 1050)
)

func (e *lockstepEmitter) OnEvent(chain uint64) {
	d := e.deltas[e.pos[chain]]
	e.pos[chain] = (e.pos[chain] + 1) % len(e.deltas)
	if d >= e.data {
		d += e.skew
		e.rto.Reset(Millisecond)
	}
	e.el.ScheduleAfter(d, e, chain)
}

// BenchmarkEventListLockstep is one pop and the push it causes under the
// load a packet simulation puts on the scheduler: 128 emitters that start
// together and draw from the same delta sequence, so their events tie. At
// rate=100G every delta is a tenth as long and the dominant one (5.12 ns)
// falls inside the wheel's active bucket, so most pushes take the heap: the
// case that must cost no more than the heap alone did.
func BenchmarkEventListLockstep(b *testing.B) {
	for _, rate := range []struct {
		name string
		div  Time
	}{{"rate=10G", 1}, {"rate=100G", 10}} {
		b.Run(rate.name, func(b *testing.B) {
			el := NewEventList()
			var deltas []Time
			for _, m := range lockstepMix {
				for i := 0; i < m.pct; i++ {
					deltas = append(deltas, m.delta/rate.div)
				}
			}
			r := NewRand(1)
			for i := len(deltas) - 1; i > 0; i-- {
				j := r.Intn(i + 1)
				deltas[i], deltas[j] = deltas[j], deltas[i]
			}
			for i := 0; i < lockstepEmitters; i++ {
				e := &lockstepEmitter{el: el, deltas: deltas, data: 7200 * Nanosecond / rate.div,
					skew: Time(i%8) * 70 * Nanosecond / rate.div}
				e.rto.Init(el, func() { b.Error("an RTO timer fired") })
				for c := range e.pos {
					e.pos[c] = c * len(deltas) / lockstepChains
					el.Schedule(0, e, uint64(c))
				}
			}
			// Let the chains spread out from the common start.
			for i := 0; i < 100_000; i++ {
				el.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				el.Step()
			}
			b.StopTimer()
			if n := el.Len(); n != lockstepEmitters*(lockstepChains+1) {
				b.Errorf("%d events pending, want %d", n, lockstepEmitters*(lockstepChains+1))
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
