package scenario

import (
	"testing"
	"time"

	"ndp/internal/fabric"
	"ndp/internal/harness"
)

// strays sums the stray counters of every host's endpoint.
func strays(net harness.Net) (s fabric.Strays) {
	for i := range net.Cluster().NumHosts() {
		o := net.Endpoint(i).Strays
		s.Data += o.Data
		s.Control += o.Control
	}
	return s
}

// TestNoStrayData: a receiver leaves its host's table only by its flow's
// release, 2*MSL after the sender completed, when nothing of the flow is in
// flight — or, on DCQCN's lossless fixed path, at the FIN, after which
// nothing of the flow arrives; so no data packet ever arrives at a host that
// has forgotten its flow. A stray data packet would mean a receiver released
// too early. Checked for every transport on every scenario of the transport
// x topology matrix and on the 64-host rpc churn. Stray control packets —
// late ACKs and pulls for senders already reused, CNPs after a DCQCN
// sender's stop — are expected, except on NDP, whose senders too keep their
// entries until 2*MSL after completion. (pHost opens a receiver from any
// data packet, so there a receiver released too early shows as a flow
// opened twice instead: phost's own tests pin that.)
func TestNoStrayData(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	specs := map[string]Spec{}
	for name, spec := range matrixSpecs(t) {
		for _, tp := range matrixTopologies {
			if name == "failure" && tp.name != "fattree" {
				continue // Validate: link failures are FatTree-only
			}
			specs[name+"/"+tp.name] = spec.With(WithTopology(tp.topo))
		}
	}
	rpc, err := Build("rpc", Params{Hosts: 64, Degree: 5, FlowSize: 1500}, WithDeadline(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	specs["rpc-churn"] = rpc // TestChurnAllocsPerFlow's Spec
	for name, spec := range specs {
		for _, tr := range []Transport{NDP, TCP, DCTCP, MPTCP, DCQCN, PHost} {
			spec := spec.With(WithTransport(tr)).withDefaults()
			t.Run(name+"/"+string(tr), func(t *testing.T) {
				t.Parallel()
				seed := harness.SweepSeeds(spec.Seed, 1)[0]
				net := spec.build(seed)
				out := runOn(spec, seed, 0, net)
				s := strays(net)
				t.Logf("%d flows completed; strays: %d data, %d control", out.completed, s.Data, s.Control)
				if s.Data != 0 {
					t.Errorf("%d stray data packets: a receiver left its table while its sender could still send", s.Data)
				}
				if tr == NDP && s.Control != 0 {
					t.Errorf("%d stray control packets: a sender left its table within 2*MSL of its completion", s.Control)
				}
			})
		}
	}
}
