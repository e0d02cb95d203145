package topo

import (
	"reflect"
	"testing"

	"ndp/internal/core"
	"ndp/internal/fabric"
	"ndp/internal/sim"
)

// TestClosedNetworkHandsOnItsRingSlabs: every ring of a port that a topology
// builds — the flight, and the rings of its switch or NIC queue — takes its
// first buffer from the slab of the port's own scheduling domain, in port
// order, and a network closed with no packet in use hands those slabs on
// with its domains. An NDP FatTree(4), at one shard and at two, is built on
// fresh domains, runs traffic and closes; built again, it takes the same
// domains back, and neither the build nor the run allocates a new slab (a
// slab that grows is replaced, so the same slab is the same memory). A
// network closed with a packet in use keeps its slabs out of the next
// build.
func TestClosedNetworkHandsOnItsRingSlabs(t *testing.T) {
	domains.Lock()
	saved := domains.free
	domains.free = nil
	domains.Unlock()
	defer func() {
		domains.Lock()
		domains.free = append(domains.free, saved...)
		domains.Unlock()
	}()

	for _, shards := range []int{1, 2} {
		first := runNDPOnSlabs(t, shards, false)
		second := runNDPOnSlabs(t, shards, false)
		if !reflect.DeepEqual(second.lists, first.lists) {
			t.Errorf("shards=%d: the second build did not take the first one's domains back", shards)
		}
		if !reflect.DeepEqual(second.built, first.built) || !reflect.DeepEqual(second.ran, first.built) {
			t.Errorf("shards=%d: slabs %v after the first build, %v after the second and %v after its run: a ring buffer was allocated",
				shards, first.built, second.built, second.ran)
		}
	}

	before := Domains()
	leaky := runNDPOnSlabs(t, 1, true)
	if d := Domains(); d.Leaky != before.Leaky+1 {
		t.Errorf("the leaky network was not counted: %+v, then %+v", before, d)
	}
	next := runNDPOnSlabs(t, 1, false)
	if next.lists[0] == leaky.lists[0] || next.built[0] == leaky.ran[0] {
		t.Error("the domain of a network closed with a packet in use served the next build, slabs and all")
	}
}

// slabSpans is where one domain's two ring slabs are in memory.
type slabSpans struct{ queues, flights span }

// slabRun is what runNDPOnSlabs observed: the network's domains, and their
// slabs after the build and at the end of the run.
type slabRun struct {
	lists      []*sim.EventList
	built, ran []slabSpans
}

// runNDPOnSlabs builds an NDP FatTree(4) at shards, checks that every port's
// rings were carved from its own domain's slabs in port order, runs a
// permutation of unbounded flows for a millisecond and closes the network,
// first leaking one packet if leak is set.
func runNDPOnSlabs(t *testing.T, shards int, leak bool) slabRun {
	t.Helper()
	ft := NewFatTree(4, Config{Seed: 1, Shards: shards, SwitchQueue: core.QueueFactory(core.DefaultSwitchConfig(9000), 1)})
	core.WireBounce(ft.Switches)
	st := make([]*core.Stack, ft.NumHosts())
	for i, h := range ft.Hosts {
		cfg := core.DefaultConfig()
		cfg.Seed = uint64(i) + 1
		st[i] = core.NewStack(h, ft, cfg)
	}
	run := slabRun{lists: ft.els}
	slabs := func() []slabSpans {
		var s []slabSpans
		for _, el := range ft.els {
			a := reflect.ValueOf(arena(el)).Elem()
			s = append(s, slabSpans{spanOf(a.FieldByName("queues")), spanOf(a.FieldByName("flights"))})
		}
		return s
	}
	run.built = slabs()
	checkCarved(t, &ft.Network, run.built)

	for src, dst := range sim.NewRand(7).Perm(len(st)) {
		if src != dst {
			st[src].Connect(st[dst], -1, core.FlowOpts{})
		}
	}
	ft.Runner().RunUntil(sim.Millisecond)
	if ft.PacketHops() == 0 {
		t.Fatal("the permutation sent nothing")
	}
	run.ran = slabs()
	if leak {
		arena(ft.EL).Get()
	}
	for _, s := range st {
		s.Close()
	}
	ft.Close()
	want := int64(0)
	if leak {
		want = 1
	}
	if got := ft.PacketsInUse(); got != want {
		t.Errorf("shards=%d: %d packets in use after Close, want %d", shards, got, want)
	}
	return run
}

// checkCarved requires that every ring of every port lies in the slab of the
// port's own shard, each after the one carved before it (so no two share a
// slot), and that a cut port's flight owns no memory.
func checkCarved(t *testing.T, n *Network, slabs []slabSpans) {
	t.Helper()
	shard := make(map[*fabric.Port]int, len(n.portSlab))
	for i, h := range n.Hosts {
		shard[h.NIC] = n.hostShard[i]
	}
	for i, sw := range n.Switches {
		for _, p := range sw.Ports {
			shard[p] = n.swShard[i]
		}
	}
	next := make([]slabSpans, len(slabs)) // the lowest address the next ring may take
	for i := range next {
		next[i] = slabSpans{span{lo: slabs[i].queues.lo}, span{lo: slabs[i].flights.lo}}
	}
	for i := range n.portSlab {
		p := &n.portSlab[i]
		s := shard[p]
		flight := spanOf(reflect.ValueOf(p).Elem().FieldByName("flight"))
		if p.Cross != nil {
			if flight != (span{}) {
				t.Errorf("cut port %v has a flight buffer", p)
			}
		} else {
			next[s].flights.lo = flight.after(t, p, "flight", next[s].flights.lo, slabs[s].flights)
		}
		rings := []string{"ctrl", "data"} // a NIC's bands, in carving order
		if _, ok := p.Q.(*core.SwitchQueue); ok {
			rings = []string{"data", "hdr"}
		}
		q := reflect.ValueOf(p.Q).Elem()
		for _, name := range rings {
			next[s].queues.lo = spanOf(q.FieldByName(name)).after(t, p, name, next[s].queues.lo, slabs[s].queues)
		}
	}
}

// span is the memory of a slice's elements, [lo, hi).
type span struct{ lo, hi uintptr }

// spanOf returns the buffer of v, a fabric.Ring or a slab (a struct with a
// buf slice).
func spanOf(v reflect.Value) span {
	buf := v.FieldByName("buf")
	if buf.Len() == 0 {
		return span{}
	}
	return span{buf.Pointer(), buf.Pointer() + uintptr(buf.Len())*buf.Type().Elem().Size()}
}

// after checks that the ring s of port p lies in slab at or after lo, and
// returns where the next ring may start.
func (s span) after(t *testing.T, p *fabric.Port, ring string, lo uintptr, slab span) uintptr {
	t.Helper()
	if s.lo == s.hi || s.lo < lo || s.hi > slab.hi {
		t.Errorf("port %v: ring %s at [%#x, %#x), want it in its shard's slab [%#x, %#x) at or after %#x",
			p, ring, s.lo, s.hi, slab.lo, slab.hi, lo)
		return lo
	}
	return s.hi
}
