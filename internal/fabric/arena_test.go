package fabric

import (
	"bytes"
	"math/rand"
	"reflect"
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

// FuzzArenaInterleaving replays fuzz-chosen byte strings as get/free
// programs: even bytes allocate, odd bytes free the (b/2 mod len)-th
// outstanding packet, or with nothing outstanding recycle the arena, as a
// closed network's is. The invariant under any program is exact InUse
// accounting, a peak no lower than it, no aliasing among outstanding
// packets, and after a recycle a free-list of exactly the packets of the
// chunks the peak needed, each once, freed and owned by nobody.
func FuzzArenaInterleaving(f *testing.F) {
	f.Add([]byte{0, 2, 1, 4, 3, 5})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 1})
	f.Add([]byte{7})
	// Two chunks' worth out and back, a recycle (to two chunks), a smaller
	// run, a recycle (to one) and allocations from the rebuilt list.
	big := append(bytes.Repeat([]byte{0}, 600), bytes.Repeat([]byte{1}, 601)...)
	f.Add(append(big, append(bytes.Repeat([]byte{2, 3}, 40), 1, 0, 0, 0)...))
	f.Fuzz(func(t *testing.T, program []byte) {
		a := NewArena()
		var out []*Packet
		for _, b := range program {
			if b%2 == 0 {
				p := a.NewData(uint64(b), 0, 1, int64(len(out)), 1500)
				for _, q := range out {
					if q == p {
						t.Fatal("arena aliased an outstanding packet")
					}
				}
				out = append(out, p)
			} else if len(out) > 0 {
				i := int(b/2) % len(out)
				Free(out[i])
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
			} else {
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
			}
			if a.InUse() != int64(len(out)) || a.Peak() < a.InUse() {
				t.Fatalf("InUse()=%d and Peak()=%d with %d outstanding", a.InUse(), a.Peak(), len(out))
			}
		}
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
