package fabric_test

import (
	"reflect"
	"slices"
	"testing"

	"ndp/internal/fabric"
	"ndp/internal/harness"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// TestClosedNetworkRecycles stops a 2-shard FatTree(8) mid-traffic and
// closes it: every packet in flight — in port pipelines and queues, lossless
// ingress backlogs, cross-shard mailboxes and inboxes, the stacks' receive
// delays — must come off the arenas' books (PacketsInUse() == 0), and the
// network's scheduling domains, each event list with its arena, then serve
// the next network built:
//
//   - an identical second build takes the same lists, shard by shard, grows
//     no arena chunk and no heap or wheel-node buffer while it runs, and does
//     exactly what the first did;
//   - a smaller run after it leaves each arena trimmed to that run's peak;
//   - a network that leaked a packet keeps its lists out of the free-list.
//
// The package is external because harness imports fabric.
func TestClosedNetworkRecycles(t *testing.T) {
	for _, tr := range []harness.Transport{harness.DefaultNDPTransport(9000), harness.DCQCNTransport{MTU: 9000}} {
		t.Run(tr.Name(), func(t *testing.T) {
			big := runMidTraffic(t, tr, 0)
			if big.inFlight == 0 {
				t.Fatal("no packet in flight at the stop: not the mid-traffic stop this test needs")
			}
			if big.leaked != 0 {
				t.Fatalf("%d of %d packets still in use after Close", big.leaked, big.inFlight)
			}

			again := runMidTraffic(t, tr, 0)
			if !slices.Equal(again.lists, big.lists) {
				t.Errorf("the second build did not take the first one's lists back, shard by shard")
			}
			if !reflect.DeepEqual(again.did, big.did) {
				t.Errorf("the second build did %+v, the first %+v", again.did, big.did)
			}
			if !reflect.DeepEqual(again.built, again.ran) {
				t.Errorf("the second build's buffers grew while it ran: built %+v, ran %+v", again.built, again.ran)
			}

			small := runMidTraffic(t, tr, 2)
			grown := 0
			for i, el := range small.lists {
				a := fabric.AttachArena(el)
				want := int(small.arenaPeak[i]+fabric.ArenaChunk-1) / fabric.ArenaChunk
				if a.Chunks() != want || a.FreeLen() != want*fabric.ArenaChunk {
					t.Errorf("shard %d: %d chunks and %d free packets after a run that peaked at %d packets, want %d chunks, all free",
						i, a.Chunks(), a.FreeLen(), small.arenaPeak[i], want)
				}
				grown += again.ran[i].chunks
			}
			if kept := fabric.AttachArena(small.lists[0]).Chunks() + fabric.AttachArena(small.lists[1]).Chunks(); kept >= grown {
				t.Errorf("the smaller run kept %d of the bigger run's %d chunks: nothing to trim", kept, grown)
			}

			before := topo.Domains()
			n := tr.Build(harness.FatTreeBuilder(8), topo.Config{Seed: 1, Shards: 2})
			n.StartFlow(0, 1, -1, harness.StartOpts{})
			n.Runner().RunUntil(50 * sim.Microsecond)
			leaky := shardLists(n)
			fabric.AttachArena(leaky[0]).Get() // never freed
			n.Close()
			if got := n.Cluster().PacketsInUse(); got != 1 {
				t.Errorf("%d packets in use after Close, want the one leaked", got)
			}
			if d := topo.Domains(); d.Leaky != before.Leaky+1 {
				t.Errorf("the leaky network was not counted: %+v, then %+v", before, d)
			}
			next := tr.Build(harness.FatTreeBuilder(8), topo.Config{Seed: 1, Shards: 2})
			for _, el := range shardLists(next) {
				if el == leaky[0] || el == leaky[1] {
					t.Errorf("a list of the leaky network served the next one")
				}
			}
			next.Close()
		})
	}
}

// footprint is what one shard's domain holds: arena chunks, and the
// capacities of the list's heap and wheel-node buffers.
type footprint struct{ chunks, heap, nodes int }

// midTraffic is what runMidTraffic observed.
type midTraffic struct {
	lists      []*sim.EventList
	built, ran []footprint // after the build, and at the stop
	arenaPeak  []int64
	did        struct {
		events uint64
		hops   int64
		queue  sim.QueueStats
		acked  []int64
	}
	inFlight, leaked int64
}

// runMidTraffic builds tr's FatTree(8) at 2 shards, starts one unbounded
// flow from each of the first flows hosts (every host if flows is 0) to the
// host half the tree away — every flow crosses the cut — runs to 1 ms and
// closes the network.
func runMidTraffic(t *testing.T, tr harness.Transport, flows int) midTraffic {
	t.Helper()
	n := tr.Build(harness.FatTreeBuilder(8), topo.Config{Seed: 1, Shards: 2})
	var m midTraffic
	m.lists = shardLists(n)
	m.built = footprints(m.lists)
	hosts := n.Cluster().NumHosts()
	if flows == 0 {
		flows = hosts
	}
	var started []harness.Flow
	for src := 0; src < flows; src++ {
		started = append(started, n.StartFlow(src, (src+hosts/2)%hosts, -1, harness.StartOpts{}))
	}
	n.Runner().RunUntil(sim.Millisecond)
	m.ran = footprints(m.lists)
	for _, el := range m.lists {
		m.arenaPeak = append(m.arenaPeak, fabric.AttachArena(el).Peak())
	}
	m.did.events, m.did.hops, m.did.queue = n.Runner().Executed(), n.Cluster().PacketHops(), n.Runner().QueueStats()
	for _, f := range started {
		m.did.acked = append(m.did.acked, f.AckedBytes())
	}
	m.inFlight = n.Cluster().PacketsInUse()
	n.Close()
	m.leaked = n.Cluster().PacketsInUse()
	return m
}

// shardLists returns the network's event lists in shard order.
func shardLists(n harness.Net) []*sim.EventList {
	var lists []*sim.EventList
	for _, h := range n.Cluster().HostList() {
		if el := h.EventList(); len(lists) == 0 || lists[len(lists)-1] != el {
			lists = append(lists, el)
		}
	}
	return lists
}

func footprints(lists []*sim.EventList) []footprint {
	var fs []footprint
	for _, el := range lists {
		heap, nodes := el.Capacity()
		fs = append(fs, footprint{fabric.AttachArena(el).Chunks(), heap, nodes})
	}
	return fs
}
