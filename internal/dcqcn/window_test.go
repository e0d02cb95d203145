package dcqcn

import (
	"testing"

	"ndp/internal/sim"
)

// TestSteadyStateAllocatesNothing is DCQCN's row in the per-package family
// (core, tcp and phost have a ...StaysWindowSized test each; DCQCN keeps no
// per-packet scoreboard, so there is no capacity to pin): three unbounded
// senders into one host on the lossless FatTree — ECN marks, CNPs, the
// alpha and rate-increase timers and PFC's hold queues all busy — allocate
// nothing over the last six tenths of the run.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	net, dh := dcqcnNet(4)
	var ss []*Sender
	for i, src := range []int32{5, 10, 15} {
		s, _ := start(dh, src, 0, uint64(i+1), -1)
		ss = append(ss, s)
	}
	const T = 5 * sim.Millisecond
	net.EL.RunUntil(T)
	// Warm-up call to 4T, measured call to 10T.
	horizon, steps := T, []sim.Time{3 * T, 6 * T}
	allocs := testing.AllocsPerRun(1, func() {
		horizon, steps = horizon+steps[0], steps[1:]
		net.EL.RunUntil(horizon)
	})
	if allocs != 0 {
		t.Errorf("steady state allocated %v objects between 4T and 10T", allocs)
	}
	var cnps int64
	for _, s := range ss {
		cnps += s.CNPs
		s.Stop()
	}
	// Measured: 428 CNPs over 62,328 events.
	if events := net.EL.Executed(); cnps < 100 || events < 50_000 {
		t.Errorf("the run did not exercise congestion control: %d CNPs over %d events", cnps, events)
	}
}
