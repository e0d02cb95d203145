package fabric

import (
	"bytes"
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// noLeak frees what the queues still hold and fails the test when a packet
// taken from a has not come back.
func noLeak(t *testing.T, a *Arena, queues ...Queue) {
	t.Helper()
	for _, q := range queues {
		for !q.Empty() {
			Free(q.Dequeue())
		}
	}
	if n := a.InUse(); n != 0 {
		t.Errorf("%d packets leaked", n)
	}
}

// TestArenaProperty drives random get/free interleavings against a
// reference map and checks the arena's invariants at every step:
// InUse() always equals the number of outstanding packets, a packet is
// never handed out twice while outstanding, and recycled packets come
// back fully reinitialized (no state bleed from their previous life).
func TestArenaProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewArena()
	live := map[*Packet]uint64{} // packet -> flow id stamped at allocation
	var order []*Packet          // iteration-stable view of the live set
	next := uint64(1)

	for step := 0; step < 20_000; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			var p *Packet
			switch rng.Intn(3) {
			case 0:
				p = a.Get()
				if p.Type != 0 || p.Flow != 0 || p.Seq != 0 || p.Size != 0 || p.Flags != 0 || p.Route != -1 {
					t.Fatalf("step %d: Get returned dirty packet %+v", step, p)
				}
			case 1:
				p = a.NewControl(Ack, next, 1, 2)
				if p.Type != Ack || p.Flow != next || p.Size != HeaderSize || p.Seq != 0 || p.Route != -1 {
					t.Fatalf("step %d: NewControl dirty or misbuilt: %+v", step, p)
				}
			default:
				p = a.NewData(next, 1, 2, 42, 1500)
				if p.Type != Data || p.Flow != next || p.Seq != 42 || p.Size != 1500 || p.Route != -1 {
					t.Fatalf("step %d: NewData dirty or misbuilt: %+v", step, p)
				}
			}
			if _, dup := live[p]; dup {
				t.Fatalf("step %d: arena handed out a packet that is still outstanding", step)
			}
			p.Flow = next
			live[p] = next
			order = append(order, p)
			next++
		} else {
			i := rng.Intn(len(order))
			p := order[i]
			if p.Flow != live[p] {
				t.Fatalf("step %d: outstanding packet mutated: flow %d, want %d", step, p.Flow, live[p])
			}
			delete(live, p)
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			Free(p)
		}
		if got, want := a.InUse(), int64(len(live)); got != want {
			t.Fatalf("step %d: InUse()=%d, reference says %d outstanding", step, got, want)
		}
	}
	for _, p := range order {
		Free(p)
	}
	if a.InUse() != 0 {
		t.Fatalf("after freeing everything InUse()=%d, want 0", a.InUse())
	}
}

// TestArenaDoubleFreePanics locks in the arena's defense against the
// silent free-list corruption a double free would cause.
func TestArenaDoubleFreePanics(t *testing.T) {
	a := NewArena()
	p := a.NewData(1, 0, 1, 0, 1500)
	Free(p)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	Free(p)
}

// TestFreeOwnerlessPacketPanics: the arenas are the only allocator, so a
// packet built beside them is refused where it would otherwise vanish from
// every InUse count — and the message says which packet. Free(nil) stays a
// no-op.
func TestFreeOwnerlessPacketPanics(t *testing.T) {
	Free(nil)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "no arena owns") || !strings.Contains(msg, "flow=7 3->9 seq=5") {
			t.Errorf("freeing &Packet{} panicked with %q, want the packet named", msg)
		}
	}()
	Free(&Packet{Flow: 7, Src: 3, Dst: 9, Seq: 5})
}

// TestArenaTransferMovesAccounting checks the cross-shard ownership move:
// the packet leaves the source arena's books when parked, lands on the
// destination's when adopted, and is freed into the destination's
// free-list.
func TestArenaTransferMovesAccounting(t *testing.T) {
	src, dst := NewArena(), NewArena()
	p := src.Get()
	p.park()
	if src.InUse() != 0 || dst.InUse() != 0 {
		t.Fatalf("parked: src InUse=%d dst InUse=%d, want 0/0", src.InUse(), dst.InUse())
	}
	p.adopt(dst)
	if src.InUse() != 0 || dst.InUse() != 1 {
		t.Fatalf("after transfer: src InUse=%d dst InUse=%d, want 0/1", src.InUse(), dst.InUse())
	}
	Free(p)
	if dst.InUse() != 0 {
		t.Fatalf("after free: dst InUse=%d, want 0", dst.InUse())
	}
	if len(dst.free) == 0 || dst.free[len(dst.free)-1] != p {
		t.Error("transferred packet was not freed into the destination free-list")
	}
}

// Arena program ops: a byte b is op b%8 with argument b/8.
const (
	opGet     = iota // take a packet
	opFree           // free the (arg mod n)-th outstanding packet
	opCount          // count a ring of first size 1<<(arg%7) for the next carve
	opCarve          // carve every counted ring; with none counted, one uncounted ring
	opPush           // move an outstanding packet (a new one if none) into ring arg mod n
	opPop            // pop ring arg mod n into the outstanding packets
	opGrow           // push new packets into ring arg mod n until it outgrows its slots
	opRecycle        // free everything, as a network's Close does, and recycle the arena
)

// op encodes an arena program byte.
func op(o, arg int) byte { return byte(arg*8 + o) }

// arenaCounts is what an arena program did: the counters its seeds are
// proved by.
type arenaCounts struct {
	carved, uncounted    int // rings carved; carves with nothing counted
	pushes, pops, grown  int // ring operations that moved a packet; rings that outgrew their slots
	replacedUnderLive    int // slab replacements while rings carved from the old slab were live
	recycles, staleSlabs int // recycles; recycles that found a grown ring's entries left in the slab
	reusedSlab           int // carves after a recycle that took the kept slab
}

// carvedRing is a ring an arena program carved, and the slots it was given.
type carvedRing struct {
	r     Ring[*Packet]
	slots int
}

// span is where a buffer's elements are, [lo, hi).
type span struct{ lo, hi uintptr }

func spanOf[T any](buf []T) span {
	if len(buf) == 0 {
		return span{}
	}
	lo := uintptr(unsafe.Pointer(&buf[0]))
	return span{lo, lo + uintptr(len(buf))*unsafe.Sizeof(buf[0])}
}

func (s span) overlaps(o span) bool { return s.lo < o.hi && o.lo < s.hi }

// runArenaProgram runs an arena program (the op constants) and checks after
// every step: exact InUse accounting, a peak no lower than it, no aliasing
// among outstanding packets, no two live rings sharing a slot, and no ring
// that outgrew its slots holding one of any slab the arena carved from.
// After a recycle the free-list holds exactly the packets of the chunks the
// peak needed, each once, freed and owned by nobody, and every slot of both
// ring slabs is zero.
func runArenaProgram(t *testing.T, program []byte) (c arenaCounts) {
	t.Helper()
	a := NewArena()
	var out []*Packet
	var rings []*carvedRing
	var counted []int          // first sizes counted and not yet carved
	var slabs [][]*Packet      // every queue slab carved from, held so that its memory is not reused
	held, recycled := 0, false // packets in rings; nothing carved since a recycle
	newPacket := func() *Packet {
		p := a.NewData(uint64(len(out)), 0, 1, int64(held), 1500)
		for _, q := range out {
			if q == p {
				t.Fatal("arena aliased an outstanding packet")
			}
		}
		return p
	}
	for _, b := range program {
		o, arg := int(b%8), int(b/8)
		switch o {
		case opGet:
			out = append(out, newPacket())
		case opFree:
			if len(out) > 0 {
				i := arg % len(out)
				Free(out[i])
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
			}
		case opCount:
			first := 1 << (arg % 7)
			a.queues.count(first)
			counted = append(counted, first)
		case opCarve:
			if len(counted) == 0 {
				counted = append(counted, 1<<(arg%7))
				c.uncounted++
			}
			slab, live := spanOf(a.queues.buf), a.queues.used > 0 && len(rings) > 0
			for _, first := range counted {
				cr := &carvedRing{slots: ringSize(first)}
				a.queues.carve(&cr.r, first)
				rings = append(rings, cr)
				c.carved++
			}
			counted = counted[:0]
			if spanOf(a.queues.buf) != slab {
				slabs = append(slabs, a.queues.buf)
				if live {
					c.replacedUnderLive++
				}
			} else if recycled {
				c.reusedSlab++
			}
			recycled = false
		case opPush, opPop, opGrow:
			if len(rings) == 0 {
				break
			}
			cr := rings[arg%len(rings)]
			switch o {
			case opPush:
				p := newPacket()
				if len(out) > 0 {
					Free(p)
					i := arg % len(out)
					p = out[i]
					out[i] = out[len(out)-1]
					out = out[:len(out)-1]
				}
				cr.r.Push(p, cr.slots)
				held++
				c.pushes++
			case opPop:
				if p := cr.r.Pop(); p != nil {
					out = append(out, p)
					held--
					c.pops++
				}
			case opGrow:
				for cr.r.Cap() <= cr.slots {
					cr.r.Push(newPacket(), cr.slots)
					held++
				}
				c.grown++
			}
		case opRecycle:
			for _, cr := range rings {
				for cr.r.Len() > 0 {
					Free(cr.r.Pop())
				}
			}
			for _, p := range out {
				Free(p)
			}
			for _, p := range a.queues.buf {
				if p != nil {
					c.staleSlabs++
					break
				}
			}
			out, rings, counted, held = out[:0], nil, counted[:0], 0
			want := int(a.Peak()+arenaChunk-1) / arenaChunk * arenaChunk
			a.Recycle()
			if len(a.free) != want || len(a.chunks)*arenaChunk != want || a.Peak() != 0 {
				t.Fatalf("recycled to %d free packets in %d chunks with peak %d, want %d free",
					len(a.free), len(a.chunks), a.Peak(), want)
			}
			seen := make(map[*Packet]bool, want)
			for _, p := range a.free {
				if seen[p] || !p.freed || p.owner != nil {
					t.Fatalf("recycled free-list holds %p twice, not freed or still owned", p)
				}
				seen[p] = true
			}
			for i, p := range a.queues.buf {
				if p != nil {
					t.Fatalf("recycled queue slab holds %v in slot %d", p, i)
				}
			}
			for i, e := range a.flights.buf {
				if e != (flightEntry{}) {
					t.Fatalf("recycled flight slab holds %+v in slot %d", e, i)
				}
			}
			c.recycles++
			recycled = true
		}
		if a.InUse() != int64(len(out)+held) || a.Peak() < a.InUse() {
			t.Fatalf("InUse()=%d and Peak()=%d with %d outstanding and %d in rings", a.InUse(), a.Peak(), len(out), held)
		}
		if o == opCarve || o == opPush || o == opGrow {
			checkRings(t, rings, slabs)
		}
	}
	return c
}

// checkRings fails the test when two live rings share a slot, or a ring
// that outgrew its slots still holds a slot of a slab.
func checkRings(t *testing.T, rings []*carvedRing, slabs [][]*Packet) {
	t.Helper()
	spans := make([]span, 0, len(rings))
	for _, cr := range rings {
		s := spanOf(cr.r.buf)
		spans = append(spans, s)
		if cr.r.Cap() > cr.slots {
			for _, slab := range slabs {
				if s.overlaps(spanOf(slab)) {
					t.Fatalf("a ring that grew from %d to %d entries holds a slab slot", cr.slots, cr.r.Cap())
				}
			}
		}
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].overlaps(spans[i-1]) {
			t.Fatalf("two live rings share a slot: [%#x, %#x) and [%#x, %#x)", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}

// arenaSeeds are FuzzArenaInterleaving's named programs, each proved by the
// counter its reached reads (TestArenaSeedsReachTheirCase).
var arenaSeeds = []struct {
	name    string
	program []byte
	reached func(arenaCounts) bool
}{
	{"gets, frees and a recycle", []byte{op(opGet, 0), op(opGet, 0), op(opFree, 1), op(opGet, 0), op(opFree, 0), op(opFree, 0), op(opRecycle, 0)},
		func(c arenaCounts) bool { return c.recycles == 1 }},
	{
		// Two chunks' worth out and back, a recycle (to two chunks), a
		// smaller run, a recycle (to one) and allocations from the rebuilt
		// list.
		"recycles trim the chunks to the peak",
		slices.Concat(bytes.Repeat([]byte{op(opGet, 0)}, 600), bytes.Repeat([]byte{op(opFree, 0)}, 600), []byte{op(opRecycle, 0)},
			bytes.Repeat([]byte{op(opGet, 0), op(opFree, 0)}, 40), []byte{op(opRecycle, 0), op(opGet, 0), op(opGet, 0)}),
		func(c arenaCounts) bool { return c.recycles == 2 },
	},
	{"counted rings carved, pushed and popped",
		[]byte{op(opCount, 3), op(opCount, 0), op(opCount, 6), op(opCarve, 0), op(opGet, 0), op(opPush, 0), op(opPush, 1), op(opPush, 2), op(opPop, 1), op(opPop, 0), op(opFree, 0)},
		func(c arenaCounts) bool { return c.carved == 3 && c.uncounted == 0 && c.pushes == 3 && c.pops == 2 }},
	{"a ring grows past its slots and leaves them stale for the recycle",
		[]byte{op(opCount, 1), op(opCount, 2), op(opCarve, 0), op(opGrow, 0), op(opPop, 0), op(opPush, 1), op(opRecycle, 0)},
		func(c arenaCounts) bool { return c.grown == 1 && c.staleSlabs == 1 }},
	{"a larger carve replaces the slab under live rings",
		[]byte{op(opCount, 1), op(opCarve, 0), op(opPush, 0), op(opCount, 5), op(opCount, 5), op(opCarve, 0), op(opPush, 1), op(opPush, 2), op(opPop, 0)},
		func(c arenaCounts) bool { return c.replacedUnderLive == 1 }},
	{"an uncounted carve",
		[]byte{op(opCarve, 2), op(opCarve, 4), op(opPush, 0), op(opPush, 1)},
		func(c arenaCounts) bool { return c.uncounted == 2 }},
	{"the next network carves the kept slab",
		[]byte{op(opCount, 4), op(opCount, 4), op(opCarve, 0), op(opGrow, 1), op(opRecycle, 0), op(opCount, 4), op(opCount, 3), op(opCarve, 0), op(opPush, 1), op(opRecycle, 0)},
		func(c arenaCounts) bool { return c.reusedSlab == 1 && c.staleSlabs == 1 }},
}

// TestArenaSeedsReachTheirCase runs each named seed of FuzzArenaInterleaving
// and requires the counter its name promises.
func TestArenaSeedsReachTheirCase(t *testing.T) {
	for _, seed := range arenaSeeds {
		t.Run(seed.name, func(t *testing.T) {
			if c := runArenaProgram(t, seed.program); !seed.reached(c) {
				t.Errorf("the program did not reach its case: %+v", c)
			}
		})
	}
}

// FuzzArenaInterleaving replays fuzz-chosen byte strings as arena programs
// (runArenaProgram): packets taken and freed, ring slabs counted, carved,
// pushed, popped and outgrown, and recycles between them, as a closed
// network's domain is recycled for the next.
func FuzzArenaInterleaving(f *testing.F) {
	for _, seed := range arenaSeeds {
		f.Add(seed.program)
	}
	f.Add([]byte{7})
	f.Fuzz(func(t *testing.T, program []byte) {
		runArenaProgram(t, program)
	})
}

// TestPacketIsOneCacheLine pins the layout: a Packet is one 64-byte line, no
// field of it is a slice or points to one (a source route is an index the
// switch resolves, not a hop list to load), and an arena chunk is 512 of
// them, 32 KiB, a page-aligned large object, so that every packet of a chunk
// starts on a line of its own.
func TestPacketIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(Packet{}); size != 64 {
		t.Errorf("Packet is %d bytes, want 64", size)
	}
	typ := reflect.TypeOf(Packet{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if k := f.Type.Kind(); k == reflect.Slice || k == reflect.Pointer && f.Type.Elem().Kind() == reflect.Slice {
			t.Errorf("Packet.%s is a %v", f.Name, f.Type)
		}
	}
	if chunk := arenaChunk * unsafe.Sizeof(Packet{}); chunk != 32<<10 {
		t.Errorf("an arena chunk is %d bytes, want 32 KiB", chunk)
	}
	a := NewArena()
	for i := 0; i < 2*arenaChunk; i++ {
		if p := a.Get(); uintptr(unsafe.Pointer(p))%64 != 0 {
			t.Fatalf("packet %d of the arena starts at %p, inside a cache line", i, p)
		}
	}
}

// TestPortAndQueueSizes pins the per-port state. A k=32 FatTree has 49,152
// ports (40,960 switch egresses, 8,192 host NICs), each with a flight ring,
// and 8,192 NIC queues of two rings each, all carved from slabs: one word
// more on a Port is 393 KB per build, on a Ring 1.2 MB, on a CtrlPrioQueue
// 66 KB. A Port carries no counter that nothing reads, which keeps it three
// words short of three cache lines.
func TestPortAndQueueSizes(t *testing.T) {
	if size := unsafe.Sizeof(Port{}); size > 168 {
		t.Errorf("Port is %d bytes, want at most 168: a word more is 393 KB in a k=32 FatTree", size)
	}
	if size := unsafe.Sizeof(Ring[*Packet]{}); size != 32 {
		t.Errorf("Ring is %d bytes, want 32: a word more is 1.2 MB over the 147,456 rings of a k=32 NDP FatTree", size)
	}
	if size := unsafe.Sizeof(CtrlPrioQueue{}); size > 112 {
		t.Errorf("CtrlPrioQueue is %d bytes, want at most 112: a word more is 66 KB over the 8,192 NICs of a k=32 FatTree", size)
	}
}
