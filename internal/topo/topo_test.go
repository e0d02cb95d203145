package topo

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"

	"ndp/internal/fabric"
	"ndp/internal/sim"
)

func TestFatTreeDimensions(t *testing.T) {
	tests := []struct {
		k, oversub          int
		hosts, tors, aggs   int
		cores, pathsPerPair int
	}{
		{4, 1, 16, 8, 8, 4, 4},
		{8, 1, 128, 32, 32, 16, 16},
		{12, 1, 432, 72, 72, 36, 36},
		{8, 4, 512, 32, 32, 16, 16},
	}
	for _, tt := range tests {
		ft := NewFatTreeOversub(tt.k, tt.oversub, Config{})
		if got := ft.NumHosts(); got != tt.hosts {
			t.Errorf("k=%d oversub=%d: hosts=%d want %d", tt.k, tt.oversub, got, tt.hosts)
		}
		if len(ft.Tors) != tt.tors || len(ft.Aggs) != tt.aggs || len(ft.Cores) != tt.cores {
			t.Errorf("k=%d: switches %d/%d/%d want %d/%d/%d", tt.k,
				len(ft.Tors), len(ft.Aggs), len(ft.Cores), tt.tors, tt.aggs, tt.cores)
		}
		// Inter-pod pair: host 0 and the last host are in different pods.
		paths := ft.Paths(0, int32(tt.hosts-1))
		if len(paths) != tt.pathsPerPair {
			t.Errorf("k=%d: inter-pod paths=%d want %d", tt.k, len(paths), tt.pathsPerPair)
		}
	}
}

func TestFatTreePathCounts(t *testing.T) {
	ft := NewFatTree(4, Config{})
	// k=4: 2 hosts/ToR, 2 ToRs/pod, 4 hosts/pod.
	if got := len(ft.Paths(0, 1)); got != 1 {
		t.Errorf("same-ToR paths = %d, want 1", got)
	}
	if got := len(ft.Paths(0, 2)); got != 2 {
		t.Errorf("same-pod paths = %d, want k/2 = 2", got)
	}
	if got := len(ft.Paths(0, 4)); got != 4 {
		t.Errorf("inter-pod paths = %d, want (k/2)^2 = 4", got)
	}
	if ft.Paths(3, 3) != nil {
		t.Error("self paths should be nil")
	}
}

// deliver injects a data packet at src with the given source route and runs
// the simulation; it returns the host the packet arrived at (or -1).
func deliver(t *testing.T, n *Network, hosts []*fabric.Host, src, dst int32, path []int16) int32 {
	t.Helper()
	arrived := int32(-1)
	for _, h := range hosts {
		h := h
		h.Stack = fabric.SinkFunc(func(p *fabric.Packet) {
			arrived = h.ID
			fabric.Free(p)
		})
	}
	p := fabric.AttachArena(n.EL).NewData(uint64(src)<<32|uint64(dst), src, dst, 0, 1500)
	p.Path = path
	hosts[src].Send(p)
	n.EL.Run()
	if leaked := n.PacketsInUse(); leaked != 0 {
		t.Errorf("%d packets leaked", leaked)
	}
	return arrived
}

// Property: every enumerated FatTree path physically delivers the packet to
// its destination.
func TestFatTreePathsDeliverProperty(t *testing.T) {
	prop := func(srcRaw, dstRaw uint8) bool {
		ft := NewFatTree(4, Config{})
		src := int32(srcRaw) % 16
		dst := int32(dstRaw) % 16
		if src == dst {
			return true
		}
		for _, path := range ft.Paths(src, dst) {
			if got := deliver(t, &ft.Network, ft.Hosts, src, dst, path); got != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFatTreeDestinationRouting(t *testing.T) {
	// Per-packet random ECMP (Path == nil) must still deliver correctly.
	ft := NewFatTree(4, Config{})
	for dst := int32(1); dst < 16; dst += 3 {
		if got := deliver(t, &ft.Network, ft.Hosts, 0, dst, nil); got != dst {
			t.Errorf("destination-routed packet to %d arrived at %d", dst, got)
		}
	}
}

func TestFatTreeLocateRoundTrip(t *testing.T) {
	ft := NewFatTreeOversub(8, 4, Config{})
	for h := int32(0); h < int32(ft.NumHosts()); h++ {
		pod, tor, off := ft.locate(h)
		if got := ft.hostID(pod, tor, off); got != h {
			t.Fatalf("locate/hostID mismatch: %d -> (%d,%d,%d) -> %d", h, pod, tor, off, got)
		}
	}
}

func TestTwoTierPathsAndRouting(t *testing.T) {
	tt := NewTwoTier(4, 2, 2, Config{})
	if tt.NumHosts() != 8 {
		t.Fatalf("hosts = %d, want 8", tt.NumHosts())
	}
	if got := len(tt.Paths(0, 1)); got != 1 {
		t.Errorf("same-rack paths = %d, want 1", got)
	}
	if got := len(tt.Paths(0, 7)); got != 2 {
		t.Errorf("cross-rack paths = %d, want #spines = 2", got)
	}
	for dst := int32(1); dst < 8; dst++ {
		for _, path := range tt.Paths(0, dst) {
			if got := deliver(t, &tt.Network, tt.Hosts, 0, dst, path); got != dst {
				t.Errorf("path to %d delivered to %d", dst, got)
			}
		}
		if got := deliver(t, &tt.Network, tt.Hosts, 0, dst, nil); got != dst {
			t.Errorf("ECMP to %d delivered to %d", dst, got)
		}
	}
}

func TestSingleLeafTwoTier(t *testing.T) {
	tt := NewTwoTier(1, 6, 0, Config{})
	if got := len(tt.Paths(0, 5)); got != 1 {
		t.Fatalf("single-leaf paths = %d, want 1", got)
	}
	if got := deliver(t, &tt.Network, tt.Hosts, 0, 5, tt.Paths(0, 5)[0]); got != 5 {
		t.Errorf("delivered to %d, want 5", got)
	}
}

func TestBackToBack(t *testing.T) {
	b := NewBackToBack(Config{})
	got := int32(-1)
	b.Hosts[1].Stack = fabric.SinkFunc(func(p *fabric.Packet) {
		got = 1
		fabric.Free(p)
	})
	p := fabric.AttachArena(b.EL).NewData(1, 0, 1, 0, 9000)
	b.Hosts[0].Send(p)
	b.EL.Run()
	if got != 1 {
		t.Fatal("packet not delivered host0 -> host1")
	}
	if n := b.PacketsInUse(); n != 0 {
		t.Errorf("%d packets leaked", n)
	}
	// One hop: 7.2us + 500ns.
	if want := sim.Time(7700) * sim.Nanosecond; b.EL.Now() != want {
		t.Errorf("delivery at %v, want %v", b.EL.Now(), want)
	}
}

func TestDegradeLink(t *testing.T) {
	ft := NewFatTree(4, Config{})
	up := ft.Aggs[0].Ports[2:] // agg 0's uplinks, to cores 0 and 1
	before := up[0].RateBps
	ft.DegradeLink(0, 0, 1e9)
	if up[0].RateBps != 1e9 {
		t.Errorf("uplink rate = %d, want 1e9 (was %d)", up[0].RateBps, before)
	}
	// Reverse direction: core 0 serves agg position 0; pod of agg 0 is 0.
	if ft.Cores[0].Ports[0].RateBps != 1e9 {
		t.Errorf("reverse core->agg rate = %d, want 1e9", ft.Cores[0].Ports[0].RateBps)
	}
	// Other links untouched.
	if up[1].RateBps != 10e9 {
		t.Errorf("unrelated link degraded")
	}
}

func TestLosslessFatTreeWiring(t *testing.T) {
	ft := NewFatTree(4, Config{Lossless: true, LosslessLimit: 12000, PFCXoff: 3000, PFCXon: 1500})
	for _, sw := range ft.Switches {
		if !sw.Lossless() {
			t.Fatalf("%s not lossless", sw)
		}
	}
	// Destination routing must still work through ingress queues.
	if got := deliver(t, &ft.Network, ft.Hosts, 0, 9, nil); got != 9 {
		t.Errorf("lossless delivery to 9 arrived at %d", got)
	}
}

// TestPacketHopsStoppedMidRun: switch ports inside one shard serialize on
// demand (fabric.Port), ports cut by a shard boundary are event-driven, so a
// 4-shard tree is a reference for most of an unsharded one's ports. Stopped
// at fifty arbitrary instants mid-traffic, both report the same PacketHops
// and the same total BusyTime — the readers Sync first — and a tree closed
// mid-run leaks no packet.
func TestPacketHopsStoppedMidRun(t *testing.T) {
	build := func(shards int) *FatTree {
		ft := NewFatTree(4, Config{Shards: shards})
		for _, h := range ft.Hosts {
			h.Stack = fabric.SinkFunc(fabric.Free)
		}
		// Every host bursts at three others over every path: enough to back
		// up the 8-packet switch queues (and drop from them).
		for src := int32(0); src < 16; src++ {
			arena := fabric.AttachArena(ft.Hosts[src].EventList())
			for i, off := range []int32{1, 5, 10} {
				dst := (src + off) % 16
				paths := ft.Paths(src, dst)
				for n := 0; n < 12; n++ {
					p := arena.NewData(uint64(src)<<8|uint64(i), src, dst, int64(n), 9000)
					p.Path = paths[n%len(paths)]
					ft.Hosts[src].Send(p)
				}
			}
		}
		return ft
	}
	busy := func(ft *FatTree) (total sim.Time) {
		for _, sw := range ft.Switches {
			for _, p := range sw.Ports {
				p.Sync()
				total += p.BusyTime
			}
		}
		return total
	}
	one, four := build(1), build(4)
	r := sim.NewRand(3)
	stop, moving, last := sim.Time(0), 0, int64(0)
	for i := 0; i < 50; i++ {
		stop += sim.Time(r.Intn(12000)) * sim.Nanosecond
		one.Runner().RunUntil(stop)
		four.Runner().RunUntil(stop)
		h1, h4 := one.PacketHops(), four.PacketHops()
		if h1 != h4 {
			t.Fatalf("stopped at %v: %d packet hops unsharded, %d at 4 shards", stop, h1, h4)
		}
		if b1, b4 := busy(one), busy(four); b1 != b4 {
			t.Fatalf("stopped at %v: busy time %v unsharded, %v at 4 shards", stop, b1, b4)
		}
		if h1 > last {
			moving++
		}
		last = h1
	}
	if moving < 25 {
		t.Errorf("only %d of 50 stops were mid-traffic", moving)
	}
	if e1, e4 := one.SerEndEvents(), four.SerEndEvents(); e1 >= e4 {
		t.Errorf("%d serialization-end events unsharded, %d at 4 shards: cut ports should add theirs", e1, e4)
	}
	for _, ft := range []*FatTree{one, four} {
		ft.Close()
		if n := ft.PacketsInUse(); n != 0 {
			t.Errorf("shards=%d: %d packets leaked by a close mid-run", ft.Shards(), n)
		}
	}
}

type countingCommand struct{ fired int }

func (c *countingCommand) OnEvent(uint64) { c.fired++ }

// TestDeferBelowLookaheadPanics: Defer checks the conservative bound where
// it is broken. On a 2-shard FatTree a cross-shard command timed one
// picosecond inside the pair lookahead panics at the call, naming both
// hosts; exactly the lookahead away it is accepted and fires; and between
// hosts of one shard there is no bound at all. It is checked against the
// emitter's clock, not against zero.
func TestDeferBelowLookaheadPanics(t *testing.T) {
	ft := NewFatTree(4, Config{Shards: 2})
	defer ft.Close()
	from, near, far := 0, 1, ft.NumHosts()-1
	sf, st := ft.ShardOfHost(from), ft.ShardOfHost(far)
	if sf == st || ft.ShardOfHost(near) != sf {
		t.Fatalf("set-up: hosts %d, %d, %d on shards %d, %d, %d", from, near, far, sf, ft.ShardOfHost(near), st)
	}
	l := ft.pairLookahead[sf][st]
	if l <= 0 || l == sim.Infinity || l > ft.MinPathDelay(from, far) {
		t.Fatalf("set-up: pair lookahead %v, minimum path delay %v", l, ft.MinPathDelay(from, far))
	}
	ft.Runner().RunUntil(3 * sim.Microsecond)
	now := ft.ShardEventList(sf).Now()
	if now != 3*sim.Microsecond {
		t.Fatalf("set-up: the emitter's clock reads %v", now)
	}
	cmd := &countingCommand{}
	ft.Defer(from, near, now, cmd, 0)  // same shard: no bound
	ft.Defer(from, far, now+l, cmd, 0) // exactly the lookahead
	func() {
		defer func() {
			msg, _ := recover().(string)
			for _, want := range []string{"from host 0 ", "to host 15 ", "pair lookahead " + l.String()} {
				if !strings.Contains(msg, want) {
					t.Errorf("Defer one picosecond inside the lookahead panicked with %q, want %q in it", msg, want)
				}
			}
		}()
		ft.Defer(from, far, now+l-1, cmd, 0)
	}()
	ft.Runner().RunUntil(now + l)
	if cmd.fired != 2 {
		t.Errorf("%d commands fired, want the same-shard one and the one at exactly the lookahead", cmd.fired)
	}
}

// TestQueueSeedsHashNames: a queue factory gets FNV-1a of the name each queue
// was built under when names were strings ("tor0.1->agg0.0" for a switch
// egress, "h3" for a NIC), hashed from the labels without building one, so
// every queue's random stream is the one it always was. The names are
// rebuilt here the old way, with fmt.
func TestQueueSeedsHashNames(t *testing.T) {
	var nics, egress []uint64
	ft := NewFatTree(4, Config{
		HostQueue:   func(seeds []uint64) []fabric.Queue { nics = seeds; return fabric.CtrlPrioQueues(seeds) },
		SwitchQueue: func(seeds []uint64) []fabric.Queue { egress = seeds; return fabric.FIFOQueues(0)(seeds) },
	})
	fnv1a := func(name string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(name))
		return h.Sum64()
	}
	node := func(s fabric.Sink) string {
		switch v := s.(type) {
		case *fabric.Host:
			return fmt.Sprintf("h%d", v.ID)
		case *fabric.Switch:
			switch ft.level[v.ID] {
			case levelTor:
				return fmt.Sprintf("tor%d.%d", ft.pod[v.ID], ft.idx[v.ID])
			case levelAgg:
				return fmt.Sprintf("agg%d.%d", ft.pod[v.ID], ft.idx[v.ID])
			}
			return fmt.Sprintf("core%d", ft.idx[v.ID])
		}
		t.Fatalf("peer %T", s)
		return ""
	}
	var want []uint64
	for _, sw := range ft.Switches {
		for _, p := range sw.Ports {
			name := node(sw) + "->" + node(p.Peer())
			if p.String() != name {
				t.Errorf("port %q, want %q", p, name)
			}
			want = append(want, fnv1a(name))
		}
	}
	if len(egress) != len(want) {
		t.Fatalf("%d switch queue seeds for %d ports", len(egress), len(want))
	}
	for i := range want {
		if egress[i] != want[i] {
			t.Fatalf("switch port %d: seed %x, want %x", i, egress[i], want[i])
		}
	}
	for h, seed := range nics {
		if want := fnv1a(fmt.Sprintf("h%d", h)); seed != want {
			t.Fatalf("NIC of host %d: seed %x, want %x", h, seed, want)
		}
	}
	if len(nics) != ft.NumHosts() {
		t.Errorf("%d NIC seeds for %d hosts", len(nics), ft.NumHosts())
	}
}
