package harness

import (
	"testing"

	"ndp/internal/phost"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// TestNetContract holds every Net the package can build — the six
// transports and the three pinned adapters the figure runners reach the TCP
// family and DCQCN through — to what a runner written against Net relies on.
func TestNetContract(t *testing.T) {
	transports := []Transport{
		DefaultNDPTransport(9000), PlainTCPTransport(9000), DCTCPTransport(9000),
		DefaultMPTCPTransport(9000), DCQCNTransport{MTU: 9000}, PHostTransport{Cfg: phost.DefaultConfig()},
	}
	type netCase struct {
		name  string
		build func() Net
	}
	var cases []netCase
	for _, tr := range transports {
		build := func() Net { return tr.Build(FatTreeBuilder(4), topo.Config{Seed: 1}) }
		cases = append(cases, netCase{tr.Name(), build})
		if n := build(); pinned(n) != n {
			cases = append(cases, netCase{tr.Name() + "/pinned", func() Net { return pinned(build()) }})
		}
	}
	if len(cases) != 10 {
		t.Fatalf("%d nets, want the six transports, and tcp, dctcp, mptcp and dcqcn again behind their pinned adapters", len(cases))
	}

	const size = 100_000 // not a multiple of the MTU: the last packet is short
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.build()
			var done int
			var doneAt sim.Time
			var data int64
			f := n.StartFlow(3, 12, size, StartOpts{
				OnDone: func(at sim.Time) { done++; doneAt = at },
				OnData: func(b int64) { data += b },
			})
			n.EL().RunUntil(50 * sim.Millisecond)
			if done != 1 || doneAt <= 0 || doneAt >= 50*sim.Millisecond {
				t.Errorf("sized flow: OnDone fired %d times, last at %v; want once, mid-run", done, doneAt)
			}
			// pHost has no per-byte observer (StartOpts says so).
			if _, ignores := n.(*PHostNet); !ignores && data != size {
				t.Errorf("OnData summed to %d, want %d", data, size)
			}
			if got := f.AckedBytes(); got < size {
				t.Errorf("AckedBytes() = %d after completion, want >= %d", got, size)
			}

			unboundedDone := false
			u := n.StartFlow(5, 9, -1, StartOpts{OnDone: func(sim.Time) { unboundedDone = true }})
			n.EL().RunUntil(55 * sim.Millisecond)
			if unboundedDone || u.AckedBytes() == 0 {
				t.Errorf("unbounded flow: OnDone fired = %v, AckedBytes() = %d; want never, and progress",
					unboundedDone, u.AckedBytes())
			}

			// The unbounded flow is still sending: this is the Close of a
			// figure runner at its deadline, and it must leak nothing.
			inFlight := n.Cluster().PacketsInUse()
			n.Close()
			if leaked := n.Cluster().PacketsInUse(); inFlight == 0 || leaked != 0 {
				t.Errorf("%d packets in flight before Close, %d in use after; want some, then none", inFlight, leaked)
			}
		})
	}
}
