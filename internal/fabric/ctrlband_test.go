package fabric_test

import (
	"testing"

	"ndp/internal/core"
	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// TestControlBandsStayAtFirstSize keeps ctrlFirst's premise: ACKs, NACKs and
// PULLs leave a NIC ahead of any data, so at least 90 % of the control bands
// that seeded NDP traffic on FatTree(4) uses — a permutation of unbounded
// flows, and an incast of 90 KB flows from every other host — still have
// their first ctrlFirst slots when the run ends. A model change that makes
// control bands deeper fails here, and ctrlFirst is measured again. The
// package is external because core imports fabric.
func TestControlBandsStayAtFirstSize(t *testing.T) {
	traffic := []struct {
		name  string
		start func(st []*core.Stack, r *sim.Rand)
		run   sim.Time
	}{
		{"permutation", func(st []*core.Stack, r *sim.Rand) {
			for src, dst := range r.Perm(len(st)) {
				if src != dst {
					st[src].Connect(st[dst], -1, core.FlowOpts{})
				}
			}
		}, 2 * sim.Millisecond},
		{"incast", func(st []*core.Stack, r *sim.Rand) {
			dst := r.Intn(len(st))
			for src := range st {
				if src != dst {
					st[src].Connect(st[dst], 90_000, core.FlowOpts{})
				}
			}
		}, 10 * sim.Millisecond},
	}
	for _, tc := range traffic {
		for seed := uint64(1); seed <= 2; seed++ {
			net := topo.NewFatTree(4, topo.Config{Seed: 42, SwitchQueue: core.QueueFactory(core.DefaultSwitchConfig(9000), 4242)})
			core.WireBounce(net.Switches)
			st := make([]*core.Stack, net.NumHosts())
			for i, h := range net.Hosts {
				cfg := core.DefaultConfig()
				cfg.Seed = uint64(i) + 1
				st[i] = core.NewStack(h, net, cfg)
			}
			tc.start(st, sim.NewRand(seed))
			net.EL.RunUntil(tc.run)
			used, first := 0, 0
			for _, h := range net.Hosts {
				if c := h.NIC.Q.(*fabric.CtrlPrioQueue).CtrlCap(); c > 0 {
					used++
					if c == fabric.CtrlFirst {
						first++
					}
				}
			}
			t.Logf("%s seed %d: %d of %d used control bands at %d slots", tc.name, seed, first, used, fabric.CtrlFirst)
			if used == 0 || 10*first < 9*used {
				t.Errorf("%s seed %d: %d of %d used control bands kept their first %d slots, want at least 90 %%",
					tc.name, seed, first, used, fabric.CtrlFirst)
			}
			for _, s := range st {
				s.Close()
			}
			net.Close()
		}
	}
}
