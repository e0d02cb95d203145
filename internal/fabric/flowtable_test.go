package fabric

import (
	"testing"

	"ndp/internal/sim"
)

// The FlowTable harness replays a byte stream of operations against the
// table and a map[uint64]uint64 reference model, comparing every result and,
// after every operation, the whole contents and the probe invariant. Streams
// are pairs (op, arg): op selects the operation, arg indexes a fixed palette
// of 256 flow ids built so that streams can aim at the table's edges.

// ftPalette: [0] is flow id 0 (stored out of line); [1,96) hash to the top
// of the slot array at every size (hash top bits 1111: the last slot of an
// 8- or 16-slot table, the last two of 32, ...), so their probe runs wrap
// around the end; [96,160) hash to the bottom (top bits 0000: slot 0), where
// those wrapped runs land; the rest are what the harness hands out — a
// per-host counter in the high word's shadow, (host+1)<<32 | seq.
var ftPalette = func() (p [256]uint64) {
	pick := func(lo, hi int, top uint64) {
		k := uint64(1)
		for i := lo; i < hi; i++ {
			for k*fibMul>>60 != top {
				k++
			}
			p[i] = k
			k++
		}
	}
	pick(1, 96, 0xF)
	pick(96, 160, 0x0)
	for i := 160; i < 256; i++ {
		p[i] = uint64(i%7+1)<<32 | uint64(i)
	}
	return p
}()

// ftStats is what a stream provably reached.
type ftStats struct {
	grows           int // slot-array doublings (the first allocation included)
	growsAfterDel   int // doublings of a table that deletions had already reshaped
	maxDisplacement int // longest distance of an entry from its home slot
	wrapShifts      int // deletions that moved an entry from slot 0 back to the last slot
	shifts          int // deletions that moved any entry back
	zeroOps         int // operations on flow id 0
}

// checkFlowTable verifies the table against the model: same length, same
// contents, every entry reachable from its home slot without crossing an
// empty one, load at most 3/4, and a power-of-two slot array.
func checkFlowTable(t *testing.T, ft *FlowTable[uint64], model map[uint64]uint64) (maxDisp int) {
	t.Helper()
	if ft.Len() != len(model) {
		t.Fatalf("Len() = %d, model has %d", ft.Len(), len(model))
	}
	size := len(ft.slots)
	if size&(size-1) != 0 {
		t.Fatalf("slot array length %d is not a power of two", size)
	}
	if 4*int(ft.n) > 3*size {
		t.Fatalf("load %d/%d above 3/4", ft.n, size)
	}
	occupied := 0
	for i, s := range ft.slots {
		if s.key == 0 {
			continue
		}
		occupied++
		want, ok := model[s.key]
		if !ok || want != s.val {
			t.Fatalf("slot %d holds %d=%d, model has %d (present %v)", i, s.key, s.val, want, ok)
		}
		home := ft.home(s.key)
		disp := (i - home) & (size - 1)
		for d := 0; d < disp; d++ {
			if ft.slots[(home+d)&(size-1)].key == 0 {
				t.Fatalf("flow %d at slot %d is cut off from its home %d by an empty slot", s.key, i, home)
			}
		}
		if disp > maxDisp {
			maxDisp = disp
		}
	}
	if occupied != int(ft.n) {
		t.Fatalf("%d occupied slots, n = %d", occupied, ft.n)
	}
	for k, want := range model {
		if got, ok := ft.Get(k); !ok || got != want {
			t.Fatalf("Get(%d) = %d, %v; model has %d", k, got, ok, want)
		}
	}
	return maxDisp
}

// runFlowTableOps replays ops and returns what the stream reached.
func runFlowTableOps(t *testing.T, ops []byte) ftStats {
	t.Helper()
	var (
		ft      FlowTable[uint64]
		model   = map[uint64]uint64{}
		st      ftStats
		deletes int
		stamp   uint64
	)
	for i := 0; i+1 < len(ops); i += 2 {
		key := ftPalette[ops[i+1]]
		if key == 0 {
			st.zeroOps++
		}
		sizeBefore := len(ft.slots)
		switch ops[i] % 4 {
		case 0: // Put
			stamp++
			ft.Put(key, stamp)
			model[key] = stamp
		case 1: // Get
			got, ok := ft.Get(key)
			want, wantOK := model[key]
			if ok != wantOK || got != want {
				t.Fatalf("op %d: Get(%d) = %d, %v; model %d, %v", i/2, key, got, ok, want, wantOK)
			}
		case 2: // Delete
			before := append([]flowSlot[uint64](nil), ft.slots...)
			_, want := model[key]
			if got := ft.Delete(key); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, model %v", i/2, key, got, want)
			}
			delete(model, key)
			if want && key != 0 {
				deletes++
				if first := before[0].key; first != 0 && first != key && ft.slots[sizeBefore-1].key == first {
					st.wrapShifts++
				}
				for j := range before {
					if before[j].key != 0 && before[j].key != key && ft.slots[j].key != before[j].key {
						st.shifts++
						break
					}
				}
			}
		case 3: // Ref: insert-if-absent, then update in place
			stamp++
			p := ft.Ref(key)
			if want, ok := model[key]; (ok && *p != want) || (!ok && *p != 0) {
				t.Fatalf("op %d: Ref(%d) points at %d, model %d (present %v)", i/2, key, *p, want, ok)
			}
			*p = stamp
			model[key] = stamp
		}
		if len(ft.slots) != sizeBefore {
			st.grows++
			if deletes > 0 {
				st.growsAfterDel++
			}
		}
		if d := checkFlowTable(t, &ft, model); d > st.maxDisplacement {
			st.maxDisplacement = d
		}
	}
	return st
}

func ftOps(op byte, keys ...int) []byte {
	var out []byte
	for _, k := range keys {
		out = append(out, op, byte(k))
	}
	return out
}

const (
	ftPut byte = iota
	ftGet
	ftDel
	ftRef
)

// flowTableStreams are the named boundary streams; each test below asserts
// through ftStats that its stream reached the case it is named for, and
// FuzzFlowTable starts from all of them.
func flowTableStreams() map[string][]byte {
	concat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	seq := func(lo, hi int) (ks []int) {
		for k := lo; k < hi; k++ {
			ks = append(ks, k)
		}
		return ks
	}
	return map[string][]byte{
		// Six ids with one home slot in an 8-slot table: a probe run of six.
		"same-home": concat(ftOps(ftPut, seq(1, 7)...), ftOps(ftGet, seq(1, 7)...), ftOps(ftDel, 3, 1, 6), ftOps(ftGet, seq(1, 7)...)),
		// The run starts in the last slot and wraps to slots 0..; deleting
		// its head pulls the entry in slot 0 back across the end.
		"wrap-shift": concat(ftOps(ftPut, 1, 2, 3, 96, 97), ftOps(ftDel, 1), ftOps(ftGet, 2, 3, 96, 97), ftOps(ftDel, 2, 3), ftOps(ftGet, 96, 97)),
		// Deletions interleaved with the insertions that double the table
		// four times over: every rehash reads a layout backward shifts made.
		"delete-while-growing": func() (out []byte) {
			for k := 1; k < 120; k++ {
				out = append(out, ftPut, byte(k))
				if k%3 == 0 {
					out = append(out, ftDel, byte(k-2))
				}
			}
			return append(out, ftOps(ftGet, seq(1, 120)...)...)
		}(),
		// Flow id 0 is a legal id: present, updated, deleted, re-added,
		// alongside ordinary ids and across a growth.
		"flow-zero": concat(ftOps(ftGet, 0), ftOps(ftDel, 0), ftOps(ftPut, 0), ftOps(ftPut, seq(160, 170)...), ftOps(ftRef, 0), ftOps(ftGet, 0), ftOps(ftDel, 0, 0), ftOps(ftGet, 0), ftOps(ftRef, 0), ftOps(ftPut, 0)),
		// What a host does: ids from a counter, the oldest reclaimed as new
		// ones start.
		"churn": func() (out []byte) {
			for k := 160; k < 256; k++ {
				out = append(out, ftRef, byte(k), ftGet, byte(k))
				if k >= 168 {
					out = append(out, ftDel, byte(k-8))
				}
			}
			return out
		}(),
	}
}

func TestFlowTableBoundaryStreams(t *testing.T) {
	streams := flowTableStreams()
	reached := map[string]func(ftStats) bool{
		"same-home":            func(s ftStats) bool { return s.maxDisplacement >= 5 && s.shifts >= 2 },
		"wrap-shift":           func(s ftStats) bool { return s.wrapShifts >= 1 },
		"delete-while-growing": func(s ftStats) bool { return s.growsAfterDel >= 3 && s.shifts > 0 },
		"flow-zero":            func(s ftStats) bool { return s.zeroOps >= 10 && s.grows >= 2 },
		"churn":                func(s ftStats) bool { return s.grows >= 2 && s.grows <= 3 },
	}
	for name, ops := range streams {
		t.Run(name, func(t *testing.T) {
			if st := runFlowTableOps(t, ops); !reached[name](st) {
				t.Errorf("stream did not reach its case: %+v", st)
			}
		})
	}
}

// TestFlowTableVsReference drives long random streams over the whole
// palette (insert-heavy, delete-heavy and balanced mixes).
func TestFlowTableVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		r := sim.NewRand(seed)
		ops := make([]byte, 0, 6000)
		for i := 0; i < 3000; i++ {
			op := byte(r.Intn(4))
			switch seed % 3 {
			case 0: // insert-heavy
				if r.Intn(3) == 0 {
					op = ftPut
				}
			case 1: // delete-heavy
				if r.Intn(3) == 0 {
					op = ftDel
				}
			}
			ops = append(ops, op, byte(r.Intn(256)))
		}
		runFlowTableOps(t, ops)
	}
}

// TestFlowTableZeroValue: reads and deletes on a table that never
// allocated, and the first allocation's size.
func TestFlowTableZeroValue(t *testing.T) {
	var ft FlowTable[Sink]
	if _, ok := ft.Get(7); ok || ft.Delete(7) || ft.Len() != 0 || ft.slots != nil {
		t.Fatal("the zero FlowTable is empty and allocates nothing on reads")
	}
	ft.Put(7, SinkFunc(func(*Packet) {}))
	if len(ft.slots) != flowTableMinSlots || ft.Len() != 1 {
		t.Fatalf("first insert: %d slots, Len %d", len(ft.slots), ft.Len())
	}
}

// FuzzFlowTable lets the fuzzer hunt for operation interleavings the random
// streams miss: go test -fuzz=FuzzFlowTable ./internal/fabric
func FuzzFlowTable(f *testing.F) {
	for _, ops := range flowTableStreams() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runFlowTableOps(t, ops)
	})
}
