package fabric_test

import (
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/harness"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// TestCloseDoesNotGrowDeadArenas stops a network mid-traffic and closes it:
// every packet in flight — in port pipelines and queues, lossless ingress
// backlogs, cross-shard mailboxes and inboxes, the stacks' receive delays —
// must come off the arenas' books (PacketsInUse() == 0) without being pushed
// back onto free-lists nothing will allocate from again. Free did that, and
// with thousands of packets in flight reallocated each list up to their
// number. The package is external because harness imports fabric.
func TestCloseDoesNotGrowDeadArenas(t *testing.T) {
	for _, tr := range []harness.Transport{harness.DefaultNDPTransport(9000), harness.DCQCNTransport{MTU: 9000}} {
		t.Run(tr.Name(), func(t *testing.T) {
			n := tr.Build(harness.FatTreeBuilder(8), topo.Config{Seed: 1, Shards: 2})
			hosts := n.Cluster().NumHosts()
			for src := 0; src < hosts; src++ {
				n.StartFlow(src, (src+hosts/2)%hosts, -1, harness.StartOpts{}) // every flow crosses the cut
			}
			n.Runner().RunUntil(sim.Millisecond)

			var arenas []*fabric.Arena
			var caps []int
			for _, h := range n.Cluster().HostList() {
				a := fabric.AttachArena(h.EventList())
				if len(arenas) == 0 || arenas[len(arenas)-1] != a {
					arenas, caps = append(arenas, a), append(caps, a.FreeCap())
				}
			}
			inFlight := n.Cluster().PacketsInUse()
			if len(arenas) != 2 || inFlight < 2*int64(caps[0]+caps[1]) {
				t.Fatalf("%d arenas with free-lists of %v and %d packets in flight: not the mid-traffic stop this test needs",
					len(arenas), caps, inFlight)
			}
			n.Close()
			if leaked := n.Cluster().PacketsInUse(); leaked != 0 {
				t.Errorf("%d of %d packets still in use after Close", leaked, inFlight)
			}
			for i, a := range arenas {
				if got := a.FreeCap(); got != caps[i] {
					t.Errorf("shard %d: Close grew the dead arena's free-list from %d to %d slots", i, caps[i], got)
				}
			}
		})
	}
}
