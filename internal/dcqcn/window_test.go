package dcqcn

import (
	"runtime/debug"
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
	net.EL.RunUntil(4 * T)
	// Returned memory keeps the runtime's background scavenger parked
	// through the window (core.TestScoreboardStaysWindowSized says why).
	debug.FreeOSMemory()
	// The warm-up call finds the list at 4T; the measured call runs to 10T.
	horizon := 4 * T
	allocs := testing.AllocsPerRun(1, func() {
		net.EL.RunUntil(horizon)
		horizon = 10 * T
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
