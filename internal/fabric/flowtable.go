package fabric

import "math/bits"

// FlowTable maps flow ids to values of type V: the one table type behind
// every per-host flow lookup (each transport's host object dispatches by
// one). It is an open-addressed power-of-two array with a
// Fibonacci hash and linear probing. Deletion shifts the following run back
// over the hole, so there are no tombstones: the slot layout is a pure
// function of the sequence of operations, and a table that churns forever
// (closed-loop workloads start and reclaim thousands of flows per host) never
// degrades or needs a cleanup pass.
//
// The zero value is an empty table; storage is allocated on the first
// insertion. Not safe for concurrent use — a table belongs to one host and
// is only touched from that host's scheduling domain.
type FlowTable[V any] struct {
	// slots has power-of-two length (or is nil); key 0 marks an empty slot,
	// so flow id 0 itself lives out of line in zero. The counts share one
	// word: a table is embedded in every NDP stack, whose size class every
	// host pays for.
	slots   []flowSlot[V]
	n       int32 // occupied slots
	shift   uint8 // 64 - log2(len(slots)); see home
	hasZero bool
	zero    V
}

type flowSlot[V any] struct {
	key uint64
	val V
}

const (
	// fibMul is 2^64 divided by the golden ratio: multiplying by it spreads
	// consecutive ids (what flow-id counters hand out) evenly over the top
	// bits, which is where the home slot is taken from.
	fibMul = 0x9E3779B97F4A7C15
	// flowTableMinSlots is the size of the first allocation.
	flowTableMinSlots = 8
)

// Len returns the number of flows in the table.
func (t *FlowTable[V]) Len() int {
	if t.hasZero {
		return int(t.n) + 1
	}
	return int(t.n)
}

// Cap returns the number of slots allocated: what the table's memory
// follows, where Len is what it holds now.
func (t *FlowTable[V]) Cap() int { return len(t.slots) }

// home returns flow's home slot: the top bits of its Fibonacci hash.
func (t *FlowTable[V]) home(flow uint64) int { return int(flow * fibMul >> t.shift) }

// find returns the slot holding flow (found) or the empty slot that ends its
// probe run. The table must be allocated and flow non-zero.
func (t *FlowTable[V]) find(flow uint64) (i int, found bool) {
	mask := len(t.slots) - 1
	i = t.home(flow)
	for {
		switch t.slots[i].key {
		case flow:
			return i, true
		case 0:
			return i, false
		}
		i = (i + 1) & mask
	}
}

// Get returns the value stored for flow and whether there is one.
func (t *FlowTable[V]) Get(flow uint64) (v V, ok bool) {
	if flow == 0 {
		return t.zero, t.hasZero
	}
	if t.slots == nil {
		return v, false
	}
	if i, found := t.find(flow); found {
		return t.slots[i].val, true
	}
	return v, false
}

// Ref returns a pointer to flow's value, inserting the zero V first when the
// flow is absent. The pointer is valid until the next insertion or deletion.
func (t *FlowTable[V]) Ref(flow uint64) *V {
	if flow == 0 {
		t.hasZero = true
		return &t.zero
	}
	i, found := 0, false
	if t.slots != nil {
		if i, found = t.find(flow); found {
			return &t.slots[i].val
		}
	}
	// Grow at 3/4 load: linear probing stays at a couple of probes per
	// operation, and the probe loops always meet an empty slot.
	if 4*(int(t.n)+1) > 3*len(t.slots) {
		t.grow()
		i, _ = t.find(flow)
	}
	t.slots[i].key = flow
	t.n++
	return &t.slots[i].val
}

// Put stores v for flow, replacing any previous value.
func (t *FlowTable[V]) Put(flow uint64, v V) { *t.Ref(flow) = v }

// Delete removes flow and reports whether it was present.
func (t *FlowTable[V]) Delete(flow uint64) bool {
	if flow == 0 {
		had := t.hasZero
		var zero V
		t.hasZero, t.zero = false, zero
		return had
	}
	if t.slots == nil {
		return false
	}
	hole, found := t.find(flow)
	if !found {
		return false
	}
	// Backward shift: walk the run after the hole and move back every entry
	// whose home slot does not lie cyclically in (hole, j] — one that a
	// lookup would no longer reach across the hole.
	mask := len(t.slots) - 1
	for j := (hole + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		home := t.home(t.slots[j].key)
		if (j-home)&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = flowSlot[V]{}
	t.n--
	return true
}

// grow doubles the slot array (or makes the first one) and reinserts every
// entry in slot order: O(log N) allocations over a host's lifetime, paid by
// the flows that filled the table, never per packet.
func (t *FlowTable[V]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < flowTableMinSlots {
		size = flowTableMinSlots
	}
	t.slots = make([]flowSlot[V], size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for i := range old {
		if old[i].key != 0 {
			j, _ := t.find(old[i].key)
			t.slots[j] = old[i]
		}
	}
}
