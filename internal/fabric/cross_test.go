package fabric

import (
	"testing"
	"unsafe"

	"ndp/internal/sim"
)

// crossRig is one directed mailbox between two shard arenas, with a sink on
// the destination that records which packets arrived.
type crossRig struct {
	src, dst *Arena
	el       *sim.EventList
	inbox    *Inbox
	box      CrossBox
	sink     *CountingSink
	seen     map[int64]int // packet Seq -> deliveries
	added    int64
	// earliest is the At of the oldest entry still in the box (entries are
	// added in time order): the destination may not run past it, which is
	// what the lookahead guarantees in a real run.
	earliest sim.Time
}

func newCrossRig() *crossRig {
	r := &crossRig{src: NewArena(), el: sim.NewEventList(), seen: map[int64]int{}, earliest: sim.Infinity}
	r.inbox = NewInbox(r.el)
	r.dst = AttachArena(r.el)
	r.sink = NewCountingSink(r.el)
	r.sink.OnPacket = func(p *Packet) { r.seen[p.Seq]++ }
	return r
}

// add emits one delivery from the source shard.
func (r *crossRig) add() {
	r.added++
	at := r.due()
	r.box.AddDelivery(at, sim.DeliveryOrd(1, uint64(r.added)), r.src.NewData(1, 0, 1, r.added, 9000), r.sink)
}

// due is when the next entry fires: a microsecond after the destination's
// clock.
func (r *crossRig) due() sim.Time {
	at := r.el.Now() + sim.Microsecond
	r.earliest = min(r.earliest, at)
	return at
}

// checkBooks asserts that every packet not yet delivered is on exactly one
// set of books: the source arena never (it parked them all), the mailbox
// until drained, the destination arena until fired.
func (r *crossRig) checkBooks(t *testing.T, when string) {
	t.Helper()
	outstanding := r.added - r.sink.Packets
	if got := r.src.InUse() + r.dst.InUse() + r.box.Packets(); got != outstanding {
		t.Fatalf("%s: src InUse %d + dst InUse %d + mailbox %d = %d, want %d outstanding",
			when, r.src.InUse(), r.dst.InUse(), r.box.Packets(), got, outstanding)
	}
	if r.src.InUse() != 0 {
		t.Fatalf("%s: source arena still counts %d packets it handed to the mailbox", when, r.src.InUse())
	}
}

// TestCrossBoxWindowIsolation pins the two-phase contract: what the source
// adds during window w is invisible to the destination's drain of window w
// (it only sees what the barrier before it published), and reaches it in
// window w+1.
func TestCrossBoxWindowIsolation(t *testing.T) {
	r := newCrossRig()
	r.add() // emitted during window 0
	if at := r.box.Publish(); at != sim.Microsecond {
		t.Fatalf("Publish reported earliest entry at %v, want 1us", at)
	}
	r.add() // emitted during window 1, while the destination drains
	r.box.DrainPublished(r.inbox)
	if r.el.Len() != 1 || r.box.Len() != 1 || r.box.Packets() != 1 {
		t.Fatalf("window-1 drain scheduled %d events and left %d entries (%d packets): want 1 and 1 (1)",
			r.el.Len(), r.box.Len(), r.box.Packets())
	}
	r.checkBooks(t, "mid-window")
	r.box.DrainPublished(r.inbox) // nothing new was published: a no-op
	if r.el.Len() != 1 {
		t.Fatalf("second drain of the same window scheduled again: %d events", r.el.Len())
	}
	r.box.Publish()
	r.box.DrainPublished(r.inbox)
	r.el.Run()
	if r.seen[1] != 1 || r.seen[2] != 1 || r.box.Len() != 0 {
		t.Fatalf("deliveries %v, %d entries left; want each packet once and an empty box", r.seen, r.box.Len())
	}
	r.checkBooks(t, "end")
	if at := r.box.Publish(); at != sim.Infinity {
		t.Fatalf("empty box reports a pending entry at %v", at)
	}
}

// TestCrossBoxDrainDeliversEverything is the one-step path a caller owning
// both sides uses (and the benchmark's driver): Drain right after Add*
// delivers all of it, whatever was or was not published before, and the
// source arena's slots come back through the destination.
func TestCrossBoxDrainDeliversEverything(t *testing.T) {
	r := newCrossRig()
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			r.add()
			if round == 1 && i == 31 {
				r.box.Publish() // half published, half not
			}
		}
		r.box.Drain(r.inbox)
		if r.box.Len() != 0 {
			t.Fatalf("round %d: Drain left %d entries", round, r.box.Len())
		}
		r.el.Run()
		if r.sink.Packets != r.added {
			t.Fatalf("round %d: %d of %d deliveries arrived", round, r.sink.Packets, r.added)
		}
		r.checkBooks(t, "after round")
	}
}

// TestCrossBoxProperty drives a random interleaving of the mailbox's
// operations — deliveries and commands added, barriers that publish,
// destination drains, partial runs of the destination — and checks after
// every step that the packet books balance, at the end that every entry
// fired exactly once, and that ReleasePackets with entries on both sides
// returns every packet.
func TestCrossBoxProperty(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewRand(seed)
		r := newCrossRig()
		var fired []int // per command
		for step := 0; step < 2000; step++ {
			switch rng.Intn(8) {
			case 0, 1, 2:
				r.add()
			case 3:
				i := len(fired)
				fired = append(fired, 0)
				r.box.AddCommand(r.due(), sim.CommandOrd(1, uint64(i+1)), FuncEvent(func() { fired[i]++ }), 0)
			case 4:
				r.box.Publish()
			case 5:
				r.box.DrainPublished(r.inbox)
			case 6:
				r.box.Drain(r.inbox)
			default:
				r.el.RunUntil(min(r.el.Now()+sim.Time(rng.Intn(3))*sim.Microsecond, r.earliest))
			}
			if r.box.Len() == 0 {
				r.earliest = sim.Infinity
			}
			r.checkBooks(t, "step")
		}

		r.box.Drain(r.inbox)
		r.el.Run()
		for i, n := range fired {
			if n != 1 {
				t.Fatalf("seed %d: command %d fired %d times", seed, i, n)
			}
		}
		if r.sink.Packets != r.added {
			t.Fatalf("seed %d: %d of %d deliveries arrived", seed, r.sink.Packets, r.added)
		}

		// Stop mid-traffic with packets on both sides of the box and in the
		// inbox: releasing all three must settle every book.
		r.add()
		r.box.Drain(r.inbox)
		r.add()
		r.box.Publish()
		r.add()
		held := r.box.Packets() + r.dst.InUse()
		if r.box.Packets() != 2 || held != 3 {
			t.Fatalf("seed %d: want a packet on each side of the box and one in the inbox, have %d and %d",
				seed, r.box.Packets(), r.dst.InUse())
		}
		r.box.ReleasePackets()
		r.inbox.ReleasePackets()
		if r.src.InUse() != 0 || r.dst.InUse() != 0 || r.box.Packets() != 0 || r.box.Len() != 0 {
			t.Fatalf("seed %d: after release src %d dst %d mailbox %d (entries %d), want all zero (held %d)",
				seed, r.src.InUse(), r.dst.InUse(), r.box.Packets(), r.box.Len(), held)
		}
		for seq, n := range r.seen {
			if n != 1 {
				t.Fatalf("seed %d: packet %d delivered %d times", seed, seq, n)
			}
		}
		if int64(len(r.seen)) != r.sink.Packets || r.sink.Packets+held != r.added {
			t.Fatalf("seed %d: %d delivered + %d released != %d added", seed, r.sink.Packets, held, r.added)
		}
	}
}

// TestCrossEntryFitsACacheLine: the mailboxes copy every entry twice per
// crossing (write side, inbox slot), so its width is bytes on the sharded
// workloads — an 88-byte entry read +1.4 % alloc_mb_per_iter at
// perm-ndp-shards2, most of that metric's 2 % bound.
func TestCrossEntryFitsACacheLine(t *testing.T) {
	if size := unsafe.Sizeof(CrossEntry{}); size > 64 {
		t.Errorf("CrossEntry is %d bytes, more than a 64-byte cache line", size)
	}
}
