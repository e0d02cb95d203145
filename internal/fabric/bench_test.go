package fabric

import (
	"testing"

	"ndp/internal/sim"
)

// BenchmarkPortForwarding measures the fabric's per-packet cost: enqueue,
// serialize, propagate, deliver, recycle — the end-to-end hot path every
// simulated packet pays per hop. The benchmark reports wall time per
// simulated packet-hop; allocations should be zero (pooled packets).
func BenchmarkPortForwarding(b *testing.B) {
	el := sim.NewEventList()
	sink := NewCountingSink(el)
	port := NewPort(el, "bench", NewFIFOQueue(0), 10e9, 500*sim.Nanosecond)
	port.Connect(sink)
	a := AttachArena(el)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port.Enqueue(a.NewData(1, 0, 1, int64(i), 9000))
		el.Run()
	}
	if sink.Packets != int64(b.N) {
		b.Fatalf("delivered %d, want %d", sink.Packets, b.N)
	}
}

// BenchmarkPacketPool measures Get/Free cycling.
func BenchmarkPacketPool(b *testing.B) {
	a := NewArena()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := a.NewData(1, 0, 1, 0, 9000)
		Free(p)
	}
}

// BenchmarkSwitchTraversal pushes packets through a routed switch with a
// bounded queue — the common mid-network hop.
func BenchmarkSwitchTraversal(b *testing.B) {
	el := sim.NewEventList()
	sw := NewSwitch(el, 0, "s")
	sw.Route = func(s *Switch, p *Packet) int { return 0 }
	sink := NewCountingSink(el)
	out := NewPort(el, "out", NewFIFOQueue(8*9000), 10e9, 500*sim.Nanosecond)
	out.Connect(sink)
	sw.AddPort(out)
	a := AttachArena(el)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.Receive(a.NewData(1, 0, 1, int64(i), 9000))
		el.Run()
	}
}
