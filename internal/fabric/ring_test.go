package fabric

import (
	"testing"

	"ndp/internal/sim"
)

// The Ring harness replays a byte stream of operations against the ring and
// a plain-slice deque (model[0] is the oldest entry), comparing Len, Peek and
// every slot of the buffer — live ones against the model, all others against
// the zero T — after every operation, and the returned entry after every
// step of a burst. Streams are pairs (op, arg).

const (
	rgPush    byte = iota // push arg%32+1 entries
	rgPop                 // pop arg%32+1 times, running into the empty ring if the burst is longer
	rgPopTail             // the same from the tail
	rgReset               // Reset
	rgDetach              // Detach, keeping the buffer for rgAttach
	rgAttach              // Attach: the kept buffer if arg is even, else a foreign one of 1<<(arg/2%7) zero slots
	rgNumOps
)

// rgStats is what a stream provably reached.
type rgStats struct {
	wraps         int // pushes that landed in a slot below head's: the live span wraps the buffer's end
	headWraps     int // pops that moved head from the last slot to slot 0 with entries still queued
	tailWraps     int // PopTails that took a slot below head's
	tailCrossings int // PopTails that took slot 0 with older entries left at the buffer's end
	grows         int // buffer allocations (the first included)
	straddleGrows int // doublings while the live span straddled the buffer's end
	refills       int // pushes into a ring that popping had emptied at a non-zero head
	reuses        int // pushes after a Reset that found the old buffer
	emptyPops     int // Pop or PopTail on an empty ring (the zero T came back)
	handBacks     int // Detaches of a buffer from a ring popped empty at a non-zero head
	reattaches    int // Attaches of the buffer the last Detach handed back
	attachSmaller int // Attaches of a foreign buffer smaller than the ring's own
	attachLarger  int // Attaches of a foreign buffer larger than the ring's own
	attachedWraps int // pushes that wrapped the end of a buffer Attach gave
	maxLen        int
	cap           int // Cap() at the end of the stream
}

func pow2Ceil(n int) int {
	size := 1
	for size < n {
		size *= 2
	}
	return size
}

// checkRing verifies the ring against the model, slot by slot.
func checkRing[T comparable](t *testing.T, r *Ring[T], model []T) {
	t.Helper()
	var zero T
	if r.Len() != len(model) {
		t.Fatalf("Len() = %d, model holds %d", r.Len(), len(model))
	}
	c := r.Cap()
	if c&(c-1) != 0 || c < len(model) || c != len(r.buf) {
		t.Fatalf("Cap() = %d with %d queued in a buffer of %d", c, len(model), len(r.buf))
	}
	want := zero
	if len(model) > 0 {
		want = model[0]
	}
	if got := r.Peek(); got != want {
		t.Fatalf("Peek() = %v, model's head is %v", got, want)
	}
	for slot, got := range r.buf {
		want := zero
		if i := (slot - int(r.head)) & (c - 1); i < len(model) {
			want = model[i]
		}
		if got != want {
			t.Fatalf("slot %d holds %v, want %v (head %d, %d queued, cap %d)", slot, got, want, r.head, len(model), c)
		}
	}
}

// runRingOps replays ops on a ring whose pushes pass first, building entries
// with mk, and returns what the stream reached.
func runRingOps[T comparable](t *testing.T, ops []byte, first int, mk func(stamp uint64) T) rgStats {
	t.Helper()
	var (
		r         Ring[T]
		zero      T
		model     []T
		st        rgStats
		stamp     uint64
		afterWipe bool // the last structural operation was a Reset
		attached  bool // the buffer is one Attach gave
		kept      []T
	)
	if r.Cap() != 0 || r.Len() != 0 || r.Peek() != zero {
		t.Fatalf("zero ring: Cap() = %d, Len() = %d", r.Cap(), r.Len())
	}
	for i := 0; i+1 < len(ops); i += 2 {
		burst := int(ops[i+1])%32 + 1
		switch ops[i] % rgNumOps {
		case rgPush:
			for k := 0; k < burst; k++ {
				capBefore, head := r.Cap(), int(r.head)
				if capBefore > 0 && len(model) < capBefore && (head+len(model))&(capBefore-1) < head {
					st.wraps++
					if attached {
						st.attachedWraps++
					}
				}
				if len(model) == 0 && head != 0 {
					st.refills++
				}
				if afterWipe && capBefore > 0 {
					st.reuses++
				}
				afterWipe = false
				straddles := len(model) == capBefore && head != 0
				stamp++
				v := mk(stamp)
				r.Push(v, first)
				model = append(model, v)
				if r.Cap() != capBefore {
					st.grows++
					attached = false
					if straddles {
						st.straddleGrows++
					}
					switch {
					case capBefore == 0 && r.Cap() != pow2Ceil(first):
						t.Fatalf("first buffer has %d slots, want %d rounded up to a power of two", r.Cap(), first)
					case capBefore != 0 && r.Cap() != 2*capBefore:
						t.Fatalf("a full ring of %d grew to %d", capBefore, r.Cap())
					}
					checkRing(t, &r, model)
				}
			}
		case rgPop:
			for k := 0; k < burst; k++ {
				want := zero
				if len(model) > 0 {
					want, model = model[0], model[1:]
					if int(r.head) == r.Cap()-1 && len(model) > 0 {
						st.headWraps++
					}
				} else {
					st.emptyPops++
				}
				if got := r.Pop(); got != want {
					t.Fatalf("Pop() = %v, model popped %v", got, want)
				}
			}
		case rgPopTail:
			for k := 0; k < burst; k++ {
				want := zero
				if n := len(model); n > 0 {
					want, model = model[n-1], model[:n-1]
					if slot := (int(r.head) + n - 1) & (r.Cap() - 1); slot < int(r.head) {
						st.tailWraps++
						if slot == 0 {
							st.tailCrossings++
						}
					}
				} else {
					st.emptyPops++
				}
				if got := r.PopTail(); got != want {
					t.Fatalf("PopTail() = %v, model popped %v", got, want)
				}
			}
		case rgReset:
			capBefore := r.Cap()
			r.Reset()
			model, afterWipe = model[:0], true
			if r.Cap() != capBefore {
				t.Fatalf("Reset changed Cap() %d -> %d", capBefore, r.Cap())
			}
		case rgDetach:
			if len(model) > 0 {
				mustPanic(t, "Detach of a non-empty ring", func() { r.Detach() })
				break
			}
			capBefore, head := r.Cap(), r.head
			kept = r.Detach()
			if len(kept) != capBefore || r.Cap() != 0 {
				t.Fatalf("Detach handed back %d slots of %d and left Cap() = %d", len(kept), capBefore, r.Cap())
			}
			for slot, v := range kept {
				if v != zero {
					t.Fatalf("Detach handed back slot %d holding %v", slot, v)
				}
			}
			if capBefore > 0 && head != 0 {
				st.handBacks++
			}
			attached = false
		case rgAttach:
			buf, foreign := kept, ops[i+1]%2 == 1 || kept == nil
			if foreign {
				buf = make([]T, 1<<(ops[i+1]/2%7))
			}
			if len(model) > 0 {
				mustPanic(t, "Attach to a non-empty ring", func() { r.Attach(buf) })
				break
			}
			mustPanic(t, "Attach of a buffer of 3", func() { r.Attach(make([]T, 3)) })
			capBefore := r.Cap()
			r.Attach(buf)
			if r.Cap() != len(buf) || r.head != 0 {
				t.Fatalf("Attach of %d slots: Cap() = %d, head %d", len(buf), r.Cap(), r.head)
			}
			switch {
			case !foreign:
				st.reattaches++
				kept = nil
			case capBefore > 0 && len(buf) < capBefore:
				st.attachSmaller++
			case capBefore > 0 && len(buf) > capBefore:
				st.attachLarger++
			}
			attached = true
		}
		checkRing(t, &r, model)
		if len(model) > st.maxLen {
			st.maxLen = len(model)
		}
	}
	// Whatever is left drains in arrival order.
	for len(model) > 0 {
		if got := r.Pop(); got != model[0] {
			t.Fatalf("drain: Pop() = %v, model has %v", got, model[0])
		}
		model = model[1:]
	}
	checkRing(t, &r, model)
	st.cap = r.Cap()
	return st
}

// The two element shapes the simulator queues: a pointer (switch queues, pull
// and token queues, free-lists) and a plain struct holding one (a link's
// flight, a PFC ingress backlog).
func mkPacket(stamp uint64) *Packet { return &Packet{Seq: int64(stamp)} }
func mkFlight(stamp uint64) flightEntry {
	return flightEntry{pkt: &Packet{Seq: int64(stamp)}, due: sim.Time(stamp)}
}

func rgOps(pairs ...byte) []byte { return pairs }

// ringStream is a named boundary stream and the first size its pushes pass.
type ringStream struct {
	first int
	ops   []byte
}

// ringStreams are the named boundary streams; TestRingBoundaryStreams asserts
// through rgStats that each reached the case it is named for, and FuzzRing
// starts from all of them.
func ringStreams() map[string]ringStream {
	return map[string]ringStream{
		// 6 in, 4 out, 5 more: head at slot 4 of 8 and the last three entries
		// in slots 0..2; five pops then carry head from slot 7 round to slot 1.
		"head-wraps-at-nonzero-offset": {8, rgOps(rgPush, 5, rgPop, 3, rgPush, 4, rgPop, 4)},
		// 8 in, 3 out, 3 more: full, head at slot 3, three entries wrapped.
		// The next push doubles the buffer and must keep arrival order; two
		// long bursts then take it from 16 slots to 128.
		"grow-straddling-wrap": {8, rgOps(rgPush, 7, rgPop, 2, rgPush, 2, rgPush, 0, rgPop, 1, rgPush, 31, rgPush, 31)},
		// Head at slot 5 with entries in slots 5, 6, 7, 0, 1, 2: five PopTails
		// take the three wrapped ones, cross back over the buffer's end and
		// take two more; the tail then carries on from there.
		"poptail-across-wrap": {8, rgOps(rgPush, 6, rgPop, 4, rgPush, 3, rgPopTail, 4, rgPush, 1, rgPop, 31)},
		// Drained by Pop at head 3 of 4 (and popped once more, empty),
		// refilled across the wrap, drained by PopTail, refilled again.
		"drain-to-empty-then-refill": {4, rgOps(rgPush, 2, rgPop, 3, rgPush, 1, rgPopTail, 2, rgPush, 0, rgPop, 0)},
		// A queue that needed 32 slots is reset with entries still in it —
		// the slots are cleared, the buffer kept — and refilled, twice.
		"reset-reuse": {8, rgOps(rgPush, 19, rgPop, 4, rgReset, 0, rgPush, 9, rgPopTail, 1, rgReset, 0, rgReset, 0, rgPush, 0)},
		// A first size that is not a power of two is rounded up, and a queue
		// that stays within it never grows however many entries pass through.
		"first-size-honoured": func() ringStream {
			ops := rgOps(rgPush, 5)
			for i := 0; i < 300; i++ {
				ops = append(ops, rgPop, byte(i%5), rgPush, byte(i%5))
			}
			return ringStream{6, ops}
		}(),
		// The old TestRingFIFO: 100 in, 100 out in order, then an empty pop;
		// 64 slots first, as a switch queue asks for.
		// A retransmission queue drained by Pop at head 5 of 8 hands its
		// buffer back; the ring grows a fresh one and takes the old back, and
		// the entries of a refill wrap its end (head 6, slots 6, 7, then 0..2).
		"hand-back-drained": {8, rgOps(rgPush, 4, rgPop, 4, rgDetach, 0, rgPush, 0, rgPop, 0,
			rgAttach, 0, rgPush, 5, rgPop, 5, rgPush, 4, rgPopTail, 1)},
		// Emptied in its own 8 slots, the ring takes a foreign buffer of 4
		// and wraps it (head 2, slots 2, 3, then 0, 1); the next push doubles
		// it while straddling the wrap. Then, emptied again, it takes a
		// foreign buffer of 64 and wraps that too (head 60, slots 60..63,
		// then 0, 1).
		"attach-smaller-then-larger-refill-wrap": {8, rgOps(rgPush, 5, rgPop, 5, rgAttach, 5,
			rgPush, 1, rgPop, 1, rgPush, 3, rgPush, 0, rgPop, 31,
			rgAttach, 13, rgPush, 31, rgPush, 27, rgPop, 31, rgPop, 27, rgPush, 5, rgPop, 0)},
		"fill-then-drain": {64, rgOps(rgPush, 31, rgPush, 31, rgPush, 31, rgPush, 3, rgPop, 31, rgPop, 31, rgPop, 31, rgPop, 4)},
		// The old wraparound-and-resize pattern of fabric's and core's ring
		// tests: pushes outnumber tail and head pops, so the ring doubles
		// several times with head and tail mid-buffer.
		"net-growth": func() ringStream {
			var ops []byte
			for round := 0; round < 40; round++ {
				ops = append(ops, rgPush, 4, rgPopTail, 0, rgPush, 3, rgPush, 5, rgPopTail, 0, rgPush, 7, rgPop, 11)
			}
			return ringStream{16, ops}
		}(),
	}
}

func TestRingBoundaryStreams(t *testing.T) {
	reached := map[string]func(rgStats) bool{
		"head-wraps-at-nonzero-offset": func(s rgStats) bool { return s.headWraps == 1 && s.wraps == 3 && s.grows == 1 && s.cap == 8 },
		"grow-straddling-wrap":         func(s rgStats) bool { return s.straddleGrows >= 1 && s.grows == 5 && s.maxLen == 71 && s.cap == 128 },
		"poptail-across-wrap":          func(s rgStats) bool { return s.tailWraps == 3 && s.tailCrossings == 1 && s.grows == 1 },
		"drain-to-empty-then-refill":   func(s rgStats) bool { return s.refills == 2 && s.emptyPops == 2 && s.wraps >= 1 && s.grows == 1 },
		"reset-reuse":                  func(s rgStats) bool { return s.reuses == 2 && s.grows == 3 && s.cap == 32 },
		"first-size-honoured":          func(s rgStats) bool { return s.grows == 1 && s.cap == 8 && s.wraps > 100 && s.headWraps > 50 },
		"fill-then-drain":              func(s rgStats) bool { return s.grows == 2 && s.maxLen == 100 && s.emptyPops == 1 },
		"hand-back-drained": func(s rgStats) bool {
			return s.handBacks == 1 && s.reattaches == 1 && s.attachedWraps == 3 && s.grows == 2 && s.cap == 8
		},
		"attach-smaller-then-larger-refill-wrap": func(s rgStats) bool {
			return s.attachSmaller == 1 && s.attachLarger == 1 && s.attachedWraps == 4 && s.straddleGrows == 1 && s.cap == 64
		},
		"net-growth": func(s rgStats) bool { return s.grows >= 4 && s.straddleGrows >= 1 && s.wraps > 10 },
	}
	for name, rs := range ringStreams() {
		t.Run(name, func(t *testing.T) {
			if st := runRingOps(t, rs.ops, rs.first, mkPacket); !reached[name](st) {
				t.Errorf("stream did not reach its case with *Packet: %+v", st)
			}
			if st := runRingOps(t, rs.ops, rs.first, mkFlight); !reached[name](st) {
				t.Errorf("stream did not reach its case with flightEntry: %+v", st)
			}
		})
	}
}

// TestRingVsReference drives long random streams (push-heavy, pop-heavy and
// balanced mixes, with the occasional Reset) at several first sizes: any
// interleaving keeps arrival order and count.
func TestRingVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := sim.NewRand(seed)
		ops := make([]byte, 0, 1200)
		for i := 0; i < 600; i++ {
			op := byte(r.Intn(3)) // push, pop, popTail
			switch {
			case r.Intn(100) == 0:
				op = rgReset
			case seed%3 == 0 && r.Intn(3) == 0:
				op = rgPush
			case seed%3 == 1 && r.Intn(3) == 0:
				op = rgPop
			}
			ops = append(ops, op, byte(r.Intn(256)))
		}
		first := []int{1, 8, 64, 5}[seed%4]
		runRingOps(t, ops, first, mkPacket)
		runRingOps(t, ops, first, mkFlight)
	}
}

// TestRingBoundedDepth is the property every owner relies on: a queue whose
// depth stays within its first buffer keeps that buffer, and allocates
// nothing, however many entries pass through it.
func TestRingBoundedDepth(t *testing.T) {
	var r Ring[int64]
	for i := int64(0); i < 1_000_000; i++ {
		if r.Len() == 8 {
			if got := r.Pop(); got != i-8 {
				t.Fatalf("Pop() = %d, want %d", got, i-8)
			}
		}
		r.Push(i, 8)
	}
	if r.Cap() != 8 || r.Len() != 8 {
		t.Fatalf("after 1e6 entries: %d queued in %d slots", r.Len(), r.Cap())
	}
	if n := testing.AllocsPerRun(100, func() { r.Pop(); r.Push(0, 8) }); n != 0 {
		t.Fatalf("a pop and a push on a full ring allocate %v times", n)
	}
}

// FuzzRing lets the fuzzer hunt for operation interleavings the random
// streams miss: go test -fuzz=FuzzRing ./internal/fabric
func FuzzRing(f *testing.F) {
	for _, rs := range ringStreams() {
		f.Add(rs.ops, uint8(rs.first))
	}
	f.Fuzz(func(t *testing.T, ops []byte, first uint8) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runRingOps(t, ops, int(first), mkPacket)
		runRingOps(t, ops, int(first), mkFlight)
	})
}
