package fabric

import (
	"testing"

	"ndp/internal/sim"
)

// The SeqWindow harness replays a byte stream of operations against the
// window and a plain-slice reference model (model[i] is the entry for
// sequence number base+i), comparing Base, End and every live entry after
// every operation (and Base, End and the entry just pushed after every step
// of a burst). Streams are pairs (op, arg).

const (
	swPush    byte = iota // push arg%64+1 entries
	swAdvance             // advance arg%64+1 times, stopping when empty
	swSet                 // overwrite the entry arg%span above Base through At
	swReset               // Reset
)

// swStats is what a stream provably reached.
type swStats struct {
	wraps         int // pushes that landed below Base's slot: the live span wraps the buffer's end
	grows         int // buffer allocations (the first included)
	straddleGrows int // doublings while the live span straddled the buffer's end
	refills       int // pushes into a window that Advance had emptied at a non-zero base
	reuses        int // pushes after a Reset that found the old buffer
	maxSpan       int
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

// checkSeqWindow verifies the window against the model.
func checkSeqWindow(t *testing.T, w *SeqWindow[uint64], base int64, model []uint64) {
	t.Helper()
	if w.Base() != base || w.End() != base+int64(len(model)) {
		t.Fatalf("window [%d, %d), model [%d, %d)", w.Base(), w.End(), base, base+int64(len(model)))
	}
	if c := w.Cap(); c&(c-1) != 0 || c < len(model) || (c != 0 && c < seqWindowMinCap) {
		t.Fatalf("Cap() = %d with %d live entries", c, len(model))
	}
	for i, want := range model {
		if got := *w.At(base + int64(i)); got != want {
			t.Fatalf("At(%d) = %d, model has %d (window [%d, %d), cap %d)", base+int64(i), got, want, w.Base(), w.End(), w.Cap())
		}
	}
	mustPanic(t, "At(Base-1)", func() { w.At(base - 1) })
	mustPanic(t, "At(End)", func() { w.At(base + int64(len(model))) })
}

// runSeqWindowOps replays ops and returns what the stream reached.
func runSeqWindowOps(t *testing.T, ops []byte) swStats {
	t.Helper()
	var (
		w         SeqWindow[uint64]
		base      int64
		model     []uint64
		st        swStats
		stamp     uint64
		afterWipe bool // the last structural operation was a Reset
	)
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int(ops[i+1])
		switch ops[i] % 4 {
		case swPush:
			for k := 0; k <= arg%64; k++ {
				capBefore, mask := w.Cap(), int64(w.Cap()-1)
				straddles := capBefore > 0 && len(model) > 0 && (w.End()-1)&mask < base&mask
				if capBefore > 0 && len(model) < capBefore && len(model) > 0 && w.End()&mask < base&mask {
					st.wraps++
				}
				if len(model) == 0 && base > 0 {
					st.refills++
				}
				if afterWipe && capBefore > 0 {
					st.reuses++
				}
				afterWipe = false
				stamp++
				w.Push(stamp)
				model = append(model, stamp)
				if w.Cap() != capBefore {
					st.grows++
					if straddles {
						st.straddleGrows++
					}
					checkSeqWindow(t, &w, base, model)
				}
				if w.End() != base+int64(len(model)) || *w.At(w.End() - 1) != stamp {
					t.Fatalf("Push %d: End() = %d, model ends at %d", stamp, w.End(), base+int64(len(model)))
				}
			}
		case swAdvance:
			if len(model) == 0 {
				mustPanic(t, "Advance on an empty window", w.Advance)
			}
			for k := 0; k <= arg%64 && len(model) > 0; k++ {
				w.Advance()
				base, model = base+1, model[1:]
				if w.Base() != base {
					t.Fatalf("Advance: Base() = %d, model starts at %d", w.Base(), base)
				}
			}
		case swSet:
			if len(model) > 0 {
				stamp++
				*w.At(base + int64(arg%len(model))) = stamp
				model[arg%len(model)] = stamp
			}
		case swReset:
			capBefore := w.Cap()
			w.Reset()
			base, model, afterWipe = 0, model[:0], true
			if w.Cap() != capBefore {
				t.Fatalf("Reset changed Cap() %d -> %d", capBefore, w.Cap())
			}
		}
		checkSeqWindow(t, &w, base, model)
		if len(model) > st.maxSpan {
			st.maxSpan = len(model)
		}
	}
	return st
}

func swOps(pairs ...byte) []byte { return pairs }

// seqWindowStreams are the named boundary streams; TestSeqWindowBoundaryStreams
// asserts through swStats that each reached the case it is named for, and
// FuzzSeqWindow starts from all of them.
func seqWindowStreams() map[string][]byte {
	return map[string][]byte{
		// 40 in, 30 out, 50 more: [30, 90) in a 64-slot buffer, the last 26
		// entries in slots 0..25 below Base's slot 30.
		"wrap-nonzero-base": swOps(swPush, 39, swAdvance, 29, swPush, 49, swSet, 7, swSet, 55),
		// [32, 96) fills the 64 slots exactly, half of it wrapped; the next
		// push doubles the buffer and every entry moves to seq & 127.
		"grow-straddling-wrap": swOps(swPush, 63, swAdvance, 31, swPush, 31, swPush, 0, swSet, 0, swSet, 64, swPush, 63, swPush, 63),
		// Drained to empty at Base 5, then refilled from sequence 5.
		"advance-to-empty-then-push": swOps(swPush, 4, swAdvance, 4, swAdvance, 0, swPush, 2, swSet, 1),
		// A flow that needed 128 slots hands its buffer to the next one.
		"reset-reuse": swOps(swPush, 63, swPush, 35, swAdvance, 9, swReset, 0, swPush, 9, swSet, 3, swReset, 0, swReset, 0, swPush, 0),
		// A short version of TestSeqWindowBoundedSpan for the fuzzer's corpus.
		"sliding": func() (out []byte) {
			out = swOps(swPush, 63)
			for i := 0; i < 300; i++ {
				out = append(out, swAdvance, byte(i%7), swPush, byte(i%7))
			}
			return out
		}(),
	}
}

func TestSeqWindowBoundaryStreams(t *testing.T) {
	streams := seqWindowStreams()
	reached := map[string]func(swStats) bool{
		"wrap-nonzero-base":          func(s swStats) bool { return s.wraps >= 26 && s.grows == 1 && s.maxSpan == 60 },
		"grow-straddling-wrap":       func(s swStats) bool { return s.straddleGrows >= 1 && s.grows >= 3 && s.maxSpan == 193 },
		"advance-to-empty-then-push": func(s swStats) bool { return s.refills == 1 && s.grows == 1 },
		"reset-reuse":                func(s swStats) bool { return s.reuses == 2 && s.grows == 2 && s.maxSpan == 100 },
		"sliding":                    func(s swStats) bool { return s.grows == 1 && s.wraps > 1000 && s.maxSpan == 64 },
	}
	for name, ops := range streams {
		t.Run(name, func(t *testing.T) {
			if st := runSeqWindowOps(t, ops); !reached[name](st) {
				t.Errorf("stream did not reach its case: %+v", st)
			}
		})
	}
}

// TestSeqWindowBoundedSpan is the property the transports rely on: a window
// whose live span never exceeds 64 keeps its first 64-slot buffer however
// far the sequence numbers run.
func TestSeqWindowBoundedSpan(t *testing.T) {
	var w SeqWindow[int64]
	for seq := int64(0); seq < 1_000_000; seq++ {
		if w.End()-w.Base() == 64 {
			if got := *w.At(w.Base()); got != w.Base() {
				t.Fatalf("At(%d) = %d", w.Base(), got)
			}
			w.Advance()
		}
		w.Push(seq)
	}
	if w.Cap() != 64 || w.End() != 1_000_000 || w.Base() != 1_000_000-64 {
		t.Fatalf("after 1e6 pushes: [%d, %d), Cap() = %d", w.Base(), w.End(), w.Cap())
	}
	for seq := w.Base(); seq < w.End(); seq++ {
		if got := *w.At(seq); got != seq {
			t.Fatalf("At(%d) = %d", seq, got)
		}
	}
	if n := testing.AllocsPerRun(100, func() { w.Advance(); w.Push(0) }); n != 0 {
		t.Fatalf("sliding a full window allocates %v times per step", n)
	}
}

// TestSeqWindowVsReference drives long random streams (push-heavy,
// advance-heavy and balanced mixes, with the occasional Reset).
func TestSeqWindowVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := sim.NewRand(seed)
		ops := make([]byte, 0, 1200)
		for i := 0; i < 600; i++ {
			op := byte(r.Intn(3)) // push, advance, set
			switch {
			case r.Intn(100) == 0:
				op = swReset
			case seed%3 == 0 && r.Intn(3) == 0:
				op = swPush
			case seed%3 == 1 && r.Intn(3) == 0:
				op = swAdvance
			}
			ops = append(ops, op, byte(r.Intn(256)))
		}
		runSeqWindowOps(t, ops)
	}
}

// TestSeqWindowZeroValue: the zero window is empty at sequence 0, allocates
// nothing until the first Push, and then takes the 64-entry floor.
func TestSeqWindowZeroValue(t *testing.T) {
	var w SeqWindow[bool]
	w.Reset()
	if w.Base() != 0 || w.End() != 0 || w.Cap() != 0 {
		t.Fatalf("zero window: [%d, %d), Cap() = %d", w.Base(), w.End(), w.Cap())
	}
	mustPanic(t, "At(0) on the zero window", func() { w.At(0) })
	w.Push(true)
	if w.Cap() != seqWindowMinCap || !*w.At(0) || w.End() != 1 {
		t.Fatalf("first push: Cap() = %d, End() = %d", w.Cap(), w.End())
	}
}

// FuzzSeqWindow lets the fuzzer hunt for operation interleavings the random
// streams miss: go test -fuzz=FuzzSeqWindow ./internal/fabric
func FuzzSeqWindow(f *testing.F) {
	for _, ops := range seqWindowStreams() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		runSeqWindowOps(t, ops)
	})
}
