package sim

import "math/bits"

// EventList is the simulation scheduler: a timing wheel for the near future
// in front of a 4-ary indexed min-heap for everything else. All components
// of a simulation share one EventList; Run drains it in timestamp order,
// advancing the virtual clock as it goes.
//
// Events with equal timestamps fire in the order they were scheduled
// (FIFO tie-break via a sequence counter), which keeps simulations
// deterministic regardless of scheduler internals. Rescheduling an event
// counts as scheduling it anew: it moves behind everything already queued at
// the same instant.
//
// The scheduler is allocation-free on its hot paths. Components that
// schedule per packet implement Handler and pass a uint64 argument, so an
// event is two interface words plus plain integers — no closure is created.
// The func()-based At/After remain for cold call-sites where a closure per
// event is irrelevant.
//
// Equal-timestamp ordering is a 64-bit ord word, not the raw sequence
// counter: plainly-scheduled events carry ordNormal|seq (FIFO, as before),
// while ScheduleKeyed events carry a caller-chosen canonical key built with
// DeliveryOrd or CommandOrd. Canonical keys make the firing order of
// same-instant link deliveries a pure function of (emitter identity,
// emission index) instead of of who happened to schedule first — the
// property that lets the sharded multi-list runner (shards.go) reproduce
// the single-list engine bit for bit.
//
// Two tiers, one order. The firing order is a pure function of the
// (at, ord) keys; where an event waits only decides what the wait costs. A
// packet simulation schedules almost every event a few tens of nanoseconds
// to a few microseconds ahead and never cancels it, so such an event goes
// into the wheel, where a push is O(1) and a pop is an array read; the heap
// keeps its generality for the rest. Every pending event has exactly one
// home, chosen by one predicate (admit) when it is pushed.
//
// The wheel is wheelBuckets buckets of 2^wheelShift ps — 1024 × 16.384 ns,
// a 16.8 µs span that covers a 9 KB packet's serialization plus a link
// delay at 10 Gb/s. A bucket is a LIFO list threaded through one node slab;
// an occupancy bitmap finds the next non-empty one. An event is admitted
// iff it is not cancellable (Cancel and Reschedule address heap slots), its
// bucket number at>>wheelShift is below now>>wheelShift + wheelBuckets, it
// lies strictly beyond the bucket of the active run while one is loaded,
// and at least wheelMinPending events are pending (below that a heap of two
// or three levels is cheaper than the wheel's bookkeeping). Timers, RTO
// horizons, pushes into the bucket being drained and sparse simulations
// take the heap, which is always correct — no case needs special handling.
//
// The active run: when the earliest event is asked for and no run is
// loaded, the first occupied bucket (circularly from now's) is unlinked
// whole into run, sorted once by (at, ord), and popped from its tail. The
// next event to fire is the smaller of the run's tail and the heap's root.
// Sort-on-load rather than the textbook scan-per-pop, because lockstep
// senders give many events the *same* timestamp — a loaded bucket holds 13
// events on average and hundreds at a start burst — and no bucket width
// separates equal times: scanning made the wheel slower than the heap.
//
// The bucket width must stay well under the shortest common serialization
// time (64 B at 10 Gb/s = 51.2 ns; every topology in the tree runs 10 Gb/s
// links), or the dominant push lands inside the active bucket and goes to
// the heap. At faster line rates the wheel therefore degrades towards the
// heap, never past it; QueueStats shows when that has happened. The
// geometry is a constant, not a setting.
//
// Invariants: every bucketed entry's bucket number is in
// [now>>wheelShift, now>>wheelShift + wheelBuckets) — the clock only reaches
// t after everything before t has fired, so bucket indices never alias;
// every run entry precedes every bucketed entry; Len counts both tiers; a
// popped node's Handler is cleared, so the slab never pins one.
//
// Heap layout notes, because it still carries every timer and every
// workload the wheel does not admit: the heap is split into parallel
// key/value arrays so that sift comparisons touch only 16-byte (time, ord)
// keys, and the 4-ary shape halves the levels per pop versus a binary heap.
// A sibling group keys[4i+1 : 4i+5] is 64 bytes but starts 16 bytes into a
// cache line, so it straddles two lines; the key array is cache-resident and
// what a pop pays for is mispredicted compares, which is why minChild picks
// the smallest sibling without branching. Sifts move a hole instead of
// swapping, writing each displaced record once. Events removed or
// rescheduled in place (Cancel, Reschedule) never leave ghost entries.
type EventList struct {
	now      Time
	seq      uint64
	keys     []eventKey
	vals     []eventVal
	slots    []int32 // EventID -> heap index, -1 when the id is free
	free     []int32 // recycled EventIDs, a LIFO stack (order among free ids means nothing)
	executed uint64

	// firing is the ord of the event being executed, firingNone between
	// events; with now it is the key Fired compares against.
	firing uint64

	// The wheel. Node references (whead, wheelNode.next, wfree, runEntry.node)
	// are slab index + 1, so the zero value means none.
	nodes    []wheelNode
	wfree    int32                     // free-list head through wheelNode.next
	whead    []int32                   // bucket list heads, allocated on the first admitted push
	wbits    [wheelBuckets / 64]uint64 // bucket occupancy
	bucketed int                       // events in buckets, the run excluded
	run      []runEntry                // the active run, one bucket's events sorted descending: the tail fires next
	qs       QueueStats

	// allocator is an opaque slot for the resource allocator owned by this
	// list's scheduling domain (the per-shard packet arena in practice).
	// sim stays allocator-agnostic: fabric attaches and retrieves it.
	allocator any
}

// Wheel geometry (see the EventList comment for why these values).
const (
	wheelShift      = 14
	wheelBuckets    = 1024
	wheelMinPending = 16
)

// wheelNode is a bucketed event.
type wheelNode struct {
	key  eventKey
	arg  uint64
	h    Handler
	next int32
}

// runEntry is one event of the active run: its key, copied so the sort
// stays within the run, and its node.
type runEntry struct {
	key  eventKey
	node int32
}

// QueueStats counts what the two scheduler tiers did — deterministic, so a
// run can say whether its events were the near-future kind the wheel serves
// or were pushed back onto the heap (a faster line rate, a sparse topology).
type QueueStats struct {
	// WheelPops and HeapPops split the events fired by the tier they
	// waited in.
	WheelPops uint64 `json:"wheel_pops"`
	HeapPops  uint64 `json:"heap_pops"`
	// Runs is how many buckets were loaded and sorted, MaxRun the longest.
	Runs   uint64 `json:"runs"`
	MaxRun int    `json:"max_run"`
	// Heap pushes by the admission clause that sent them there.
	HeapCancelable   uint64 `json:"heap_pushes_cancelable"`
	HeapBeyondSpan   uint64 `json:"heap_pushes_beyond_span"`
	HeapActiveBucket uint64 `json:"heap_pushes_active_bucket"`
	HeapSparse       uint64 `json:"heap_pushes_sparse"`
	// PeakPending is the most events pending at once (for several lists,
	// the largest of their peaks).
	PeakPending int `json:"peak_pending"`
}

// Add accumulates o into s (sums; maxima for MaxRun and PeakPending).
func (s *QueueStats) Add(o QueueStats) {
	s.WheelPops += o.WheelPops
	s.HeapPops += o.HeapPops
	s.Runs += o.Runs
	s.MaxRun = max(s.MaxRun, o.MaxRun)
	s.HeapCancelable += o.HeapCancelable
	s.HeapBeyondSpan += o.HeapBeyondSpan
	s.HeapActiveBucket += o.HeapActiveBucket
	s.HeapSparse += o.HeapSparse
	s.PeakPending = max(s.PeakPending, o.PeakPending)
}

// WheelShare is the fraction of fired events that waited in the wheel.
func (s QueueStats) WheelShare() float64 {
	if n := s.WheelPops + s.HeapPops; n > 0 {
		return float64(s.WheelPops) / float64(n)
	}
	return 0
}

// MeanRun is the mean number of events per loaded run.
func (s QueueStats) MeanRun() float64 {
	if s.Runs > 0 {
		return float64(s.WheelPops) / float64(s.Runs)
	}
	return 0
}

// QueueStats returns the tier counters accumulated so far.
func (el *EventList) QueueStats() QueueStats {
	s := el.qs
	s.WheelPops -= uint64(len(el.run)) // counted at load, not yet fired
	s.HeapPops = el.executed - s.WheelPops
	return s
}

// SetAllocator attaches the domain allocator owned by this list.
func (el *EventList) SetAllocator(a any) { el.allocator = a }

// Allocator returns the attached domain allocator, or nil.
func (el *EventList) Allocator() any { return el.allocator }

// Handler is the typed, allocation-free way to receive events: components
// implement OnEvent once and schedule themselves with Schedule or
// ScheduleAfter, using arg to distinguish event kinds or carry a payload.
type Handler interface {
	OnEvent(arg uint64)
}

// EventID names a cancellable event in the heap. The sentinel NoEvent means
// "none"; ids are recycled after the event fires or is cancelled, so holding
// a stale id is a programming error.
type EventID int32

// NoEvent is the null EventID.
const NoEvent EventID = -1

// eventKey is the heap ordering key: fire time, then the 64-bit ord word
// (ordNormal|seq for plain events, a canonical class/uid/seq key for keyed
// ones).
type eventKey struct {
	at  Time
	ord uint64
}

func (a *eventKey) less(b *eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.ord < b.ord
}

// lessWord is less as a 0/1 word with no branch: the borrow out of the
// 128-bit subtraction (a.at:a.ord) - (b.at:b.ord). Heap keys are clamped to
// at >= now >= 0, so comparing at as unsigned is exact (Infinity included).
func lessWord(a, b eventKey) int {
	_, borrow := bits.Sub64(a.ord, b.ord, 0)
	_, borrow = bits.Sub64(uint64(a.at), uint64(b.at), borrow)
	return int(borrow)
}

// minChild returns the index of the smallest key in keys[first:end], a
// sibling group of one to four children; ties go to the lowest index. The
// sift loops spend their time here, and which sibling wins is close to
// random, so a full group is decided by a two-round tournament on index
// arithmetic and masks instead of three data-dependent branches. Only the
// heap's last group can be partial, and it keeps the scalar scan.
func minChild(keys []eventKey, first, end int) int {
	if end-first == 4 {
		c := (*[4]eventKey)(keys[first:end])
		w01 := lessWord(c[1], c[0])
		w23 := 2 + lessWord(c[3], c[2])
		// The &3 and &1 only tell the compiler the indices are in range.
		pick23 := -lessWord(c[w23&3], c[w01&1]) // all ones when the 2/3 winner is smaller
		return first + (w01 ^ (w01^w23)&pick23)
	}
	smallest := first
	for c := first + 1; c < end; c++ {
		if keys[c].less(&keys[smallest]) {
			smallest = c
		}
	}
	return smallest
}

// Ord classes, highest bits of the ord word. Lower ord fires first at equal
// timestamps: link deliveries, then cross-shard commands, then everything
// scheduled plainly (whose FIFO order the sequence counter preserves), then
// PFC pause/resume transitions.
const (
	ordDeliveryClass uint64 = 0
	ordCommandClass  uint64 = 1 << 62
	ordNormal        uint64 = 1 << 63
	ordPFCClass      uint64 = 3 << 62

	ordSeqBits = 40
	ordUIDMax  = 1 << 22 // uid field width above the 40-bit sequence
)

// DeliveryOrd builds the canonical ord for a link delivery: at equal
// timestamps deliveries fire before all other events, ordered by the
// emitting port's uid and then its emission sequence. uid must be unique
// per emitter and stable across engine modes; seq must increase per
// emitter.
func DeliveryOrd(uid uint32, seq uint64) uint64 {
	if uint64(uid) >= ordUIDMax {
		panic("sim: DeliveryOrd uid out of range")
	}
	return ordDeliveryClass | uint64(uid)<<ordSeqBits | seq&(1<<ordSeqBits-1)
}

// CommandOrd builds the canonical ord for a cross-host command (deferred
// registration, closed-loop restarts): after same-instant deliveries,
// before plainly-scheduled events, ordered by emitting host uid then its
// emission sequence.
func CommandOrd(uid uint32, seq uint64) uint64 {
	if uint64(uid) >= ordUIDMax {
		panic("sim: CommandOrd uid out of range")
	}
	return ordCommandClass | uint64(uid)<<ordSeqBits | seq&(1<<ordSeqBits-1)
}

// PFCOrd builds the canonical ord for a PFC pause/resume transition: at
// equal timestamps PFC state changes apply after every other event class,
// ordered by the paused port's uid and then the ingress's emission
// sequence. Keying the transition on the (port, seq) pair makes pause
// application order independent of scheduling history — and of which side
// of a shard boundary the transition crossed.
func PFCOrd(uid uint32, seq uint64) uint64 {
	if uint64(uid) >= ordUIDMax {
		panic("sim: PFCOrd uid out of range")
	}
	return ordPFCClass | uint64(uid)<<ordSeqBits | seq&(1<<ordSeqBits-1)
}

// eventVal is the heap payload: what to call and, for cancellable events,
// which slot tracks the record's position.
type eventVal struct {
	arg uint64
	h   Handler
	id  int32 // slot index for cancellable events, -1 otherwise
}

// funcEvent adapts the closure fallback path onto Handler. A func value is
// pointer-shaped, so the interface conversion in At does not allocate; the
// only allocation on that path is the caller's own closure.
type funcEvent func()

func (f funcEvent) OnEvent(uint64) { f() }

// firingNone is the firing ord between events: higher than any event's, so
// code running outside the event loop (set-up between RunUntil slices) sees
// everything keyed at or before now as fired.
const firingNone = ^uint64(0)

// NewEventList returns an empty scheduler with the clock at zero.
func NewEventList() *EventList { return &EventList{firing: firingNone} }

// Now returns the current simulated time.
func (el *EventList) Now() Time { return el.now }

// Len returns the number of pending events.
func (el *EventList) Len() int { return len(el.keys) + el.bucketed + len(el.run) }

// Executed returns how many events have fired since creation — the
// event-throughput numerator of the bench harness.
func (el *EventList) Executed() uint64 { return el.executed }

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error; it is clamped to "now" so the event still fires, which
// is the least surprising recovery during development. This is the closure
// fallback path: use Schedule from per-packet call-sites.
func (el *EventList) At(t Time, fn func()) {
	el.push(t, eventVal{h: funcEvent(fn), id: -1})
}

// After schedules fn to run d after the current time.
func (el *EventList) After(d Time, fn func()) { el.At(el.now+d, fn) }

// Schedule arranges for h.OnEvent(arg) to run at absolute time t without
// allocating. Past times clamp to now, as with At.
func (el *EventList) Schedule(t Time, h Handler, arg uint64) {
	el.push(t, eventVal{h: h, arg: arg, id: -1})
}

// ScheduleKeyed schedules h.OnEvent(arg) at t with an explicit equal-time
// ordering key (build it with DeliveryOrd or CommandOrd). Keyed events at
// one timestamp fire in ord order regardless of when they were scheduled,
// which is what keeps sharded and single-list execution identical.
func (el *EventList) ScheduleKeyed(t Time, ord uint64, h Handler, arg uint64) {
	el.pushKeyed(t, ord, eventVal{h: h, arg: arg, id: -1})
}

// ScheduleAfter arranges for h.OnEvent(arg) to run d after the current time.
func (el *EventList) ScheduleAfter(d Time, h Handler, arg uint64) {
	el.push(el.now+d, eventVal{h: h, arg: arg, id: -1})
}

// ScheduleCancelable schedules h.OnEvent(arg) at t and returns an id that
// Cancel or Reschedule accept. The id is valid until the event fires or is
// cancelled.
func (el *EventList) ScheduleCancelable(t Time, h Handler, arg uint64) EventID {
	id := el.allocSlot()
	el.push(t, eventVal{h: h, arg: arg, id: int32(id)})
	return id
}

// Cancel removes a pending event from the heap. It reports whether the id
// named a live event; cancelling an already-fired or already-cancelled id
// returns false. The id is recycled either way.
func (el *EventList) Cancel(id EventID) bool {
	if !el.live(id) {
		return false
	}
	el.remove(int(el.slots[id]))
	el.freeSlot(id)
	return true
}

// Reschedule moves a pending event to absolute time t (clamped to now) and
// gives it a fresh FIFO sequence number, exactly as if it had been cancelled
// and scheduled anew — but in place, with no heap garbage. It reports
// whether the id named a live event.
func (el *EventList) Reschedule(id EventID, t Time) bool {
	if !el.live(id) {
		return false
	}
	if t < el.now {
		t = el.now
	}
	i := int(el.slots[id])
	el.keys[i] = eventKey{at: t, ord: el.ReserveOrd()}
	if !el.down(i) {
		el.up(i)
	}
	return true
}

// Pending reports whether id names a live (scheduled, not yet fired or
// cancelled) event.
func (el *EventList) Pending(id EventID) bool { return el.live(id) }

func (el *EventList) live(id EventID) bool {
	return id >= 0 && int(id) < len(el.slots) && el.slots[id] >= 0
}

// ReserveOrd takes the FIFO ord the next plainly-scheduled event would get,
// without scheduling anything. An event later scheduled under it with
// ScheduleKeyed fires exactly where a Schedule call made now would have put
// it; a component that only sometimes needs the event (Fired tells it
// whether the moment has passed) can leave it out of the heap otherwise.
func (el *EventList) ReserveOrd() uint64 {
	el.seq++
	return ordNormal | el.seq
}

// Fired reports whether an event keyed (at, ord) — a reserved one, whether
// or not it was ever put in the heap — would have fired by now: its key is
// at or before that of the event executing. Outside the event loop
// everything keyed at or before Now has.
func (el *EventList) Fired(at Time, ord uint64) bool {
	return at < el.now || (at == el.now && ord <= el.firing)
}

// FiringAfterDeliveries reports whether the event executing is of a class
// that sorts after the link deliveries of its instant — a command, a plainly
// scheduled event or a PFC transition. It is false inside a delivery event
// and outside the event loop: the two places from which a reserved FIFO ord
// at Now is unambiguously still to fire, or fired.
func (el *EventList) FiringAfterDeliveries() bool {
	return el.firing-ordCommandClass < firingNone-ordCommandClass
}

// Which tier holds the earliest pending event.
const (
	tierNone = iota
	tierHeap
	tierRun
)

// head reports where the earliest pending event waits and its time
// (Infinity when nothing is pending), loading a run if events are bucketed
// and none is loaded. It is the one place the two tiers are compared.
func (el *EventList) head() (tier int, at Time) {
	if len(el.run) == 0 {
		if el.bucketed == 0 {
			if len(el.keys) == 0 {
				return tierNone, Infinity
			}
			return tierHeap, el.keys[0].at
		}
		el.loadRun()
	}
	r := &el.run[len(el.run)-1].key
	if len(el.keys) > 0 && el.keys[0].less(r) {
		return tierHeap, el.keys[0].at
	}
	return tierRun, r.at
}

// fire pops the head of the given tier (as head reported it) and runs it.
func (el *EventList) fire(tier int) {
	var k eventKey
	var h Handler
	var arg uint64
	if tier == tierRun {
		last := len(el.run) - 1
		e := el.run[last]
		el.run = el.run[:last]
		n := &el.nodes[e.node-1]
		k, h, arg = e.key, n.h, n.arg
		n.h = nil
		n.next, el.wfree = el.wfree, e.node
	} else {
		k = el.keys[0]
		v := el.vals[0]
		el.popMin()
		if v.id >= 0 {
			el.freeSlot(EventID(v.id))
		}
		h, arg = v.h, v.arg
	}
	el.now = k.at
	el.firing = k.ord
	el.executed++
	h.OnEvent(arg)
	el.firing = firingNone
}

// Step runs the earliest pending event and returns true, or returns false if
// the list is empty.
func (el *EventList) Step() bool {
	tier, _ := el.head()
	if tier == tierNone {
		return false
	}
	el.fire(tier)
	return true
}

// Run drains the event list.
func (el *EventList) Run() {
	for el.Step() {
	}
}

// RunUntil processes events with timestamps <= deadline, then sets the clock
// to the deadline. Events scheduled beyond the deadline remain pending.
func (el *EventList) RunUntil(deadline Time) {
	for {
		tier, at := el.head()
		if tier == tierNone || at > deadline {
			break
		}
		el.fire(tier)
	}
	if el.now < deadline {
		el.now = deadline
	}
}

// RunBefore processes events with timestamps strictly < limit and leaves the
// clock at the last event executed — the window body of the sharded runner,
// which must not advance an idle shard's clock past events another shard
// may still inject at the window boundary.
func (el *EventList) RunBefore(limit Time) {
	for {
		tier, at := el.head()
		if tier == tierNone || at >= limit {
			break
		}
		el.fire(tier)
	}
}

// AdvanceTo moves an idle clock forward to t (never backward); pending
// events earlier than t make this a programming error, so it panics rather
// than silently running time backwards through them.
func (el *EventList) AdvanceTo(t Time) {
	if tier, at := el.head(); tier != tierNone && at < t {
		panic("sim: AdvanceTo past a pending event")
	}
	if el.now < t {
		el.now = t
	}
}

// NextAt returns the timestamp of the earliest pending event, or Infinity if
// none is pending.
func (el *EventList) NextAt() Time {
	_, at := el.head()
	return at
}

// push clamps, stamps the FIFO sequence number, and sifts the record in.
func (el *EventList) push(at Time, v eventVal) {
	el.pushKeyed(at, el.ReserveOrd(), v)
}

// pushKeyed clamps a record and files it under an explicit ord word, in the
// wheel if admit says so and in the heap otherwise.
func (el *EventList) pushKeyed(at Time, ord uint64, v eventVal) {
	if at < el.now {
		at = el.now
	}
	pending := el.Len()
	if pending >= el.qs.PeakPending {
		el.qs.PeakPending = pending + 1
	}
	if el.admit(at, v.id, pending) {
		el.bucket(eventKey{at: at, ord: ord}, v)
		return
	}
	el.keys = append(el.keys, eventKey{at: at, ord: ord}) // keys and vals grow in lockstep: capacity bounded by peak pending events and reused across pops
	el.vals = append(el.vals, v)
	i := len(el.keys) - 1
	if v.id >= 0 {
		el.slots[v.id] = int32(i)
	}
	el.up(i)
}

// admit is the admission predicate: whether an event at (clamped) time at
// goes to the wheel. Each refusal is counted by its reason.
func (el *EventList) admit(at Time, id int32, pending int) bool {
	switch b := at >> wheelShift; {
	case id >= 0:
		el.qs.HeapCancelable++
	case b >= el.now>>wheelShift+wheelBuckets:
		el.qs.HeapBeyondSpan++
	case len(el.run) > 0 && b <= el.run[0].key.at>>wheelShift:
		el.qs.HeapActiveBucket++
	case pending < wheelMinPending:
		el.qs.HeapSparse++
	default:
		return true
	}
	return false
}

// bucket links an admitted event into its bucket.
func (el *EventList) bucket(k eventKey, v eventVal) {
	if el.whead == nil {
		el.whead = make([]int32, wheelBuckets) // 4 KB once per list, on the first admitted push, so lists that stay sparse never pay it
	}
	n := el.wfree
	if n != 0 {
		el.wfree = el.nodes[n-1].next
	} else {
		el.nodes = append(el.nodes, wheelNode{}) // capacity bounded by peak bucketed events, nodes recycled through the free list
		n = int32(len(el.nodes))
	}
	b := int(k.at>>wheelShift) & (wheelBuckets - 1)
	// Field by field: a composite literal is built on the stack with 8-byte
	// stores and copied with 16-byte loads, which stall on store forwarding.
	nd := &el.nodes[n-1]
	nd.key, nd.arg, nd.h, nd.next = k, v.arg, v.h, el.whead[b]
	el.whead[b] = n
	el.wbits[b>>6] |= 1 << (b & 63)
	el.bucketed++
}

// loadRun makes the first occupied bucket, circularly from now's, the
// active run. At least one event must be bucketed. By the window invariant
// the first occupied index is the earliest bucket.
func (el *EventList) loadRun() {
	start := int(el.now>>wheelShift) & (wheelBuckets - 1)
	w := start >> 6
	word := el.wbits[w] &^ (1<<(start&63) - 1)
	for word == 0 {
		// Wraps back to the start word, whole this time: the bits below
		// start are the far end of the window.
		w = (w + 1) & (len(el.wbits) - 1)
		word = el.wbits[w]
	}
	b := w<<6 + bits.TrailingZeros64(word)
	el.wbits[w] &^= 1 << (b & 63)
	run := el.run[:0]
	for n := el.whead[b]; n != 0; n = el.nodes[n-1].next {
		run = append(run, runEntry{key: el.nodes[n-1].key, node: n}) // capacity bounded by the fullest bucket and reused by every load
	}
	el.whead[b] = 0
	// The list is LIFO and pushes arrive roughly in time order, so the run
	// is already close to the descending order wanted.
	sortRun(run)
	el.run = run
	el.bucketed -= len(run)
	el.qs.Runs++
	el.qs.WheelPops += uint64(len(run))
	el.qs.MaxRun = max(el.qs.MaxRun, len(run))
}

// sortRun sorts r descending by (at, ord). It is not slices.SortFunc: with
// a comparison callback the sort alone was a quarter of a simulation's CPU.
// Most runs are a dozen nearly sorted entries and end in the insertion
// sort; start bursts of hundreds of ties go through the median-of-three
// quicksort first.
func sortRun(r []runEntry) {
	for len(r) > 24 {
		m, hi := len(r)/2, len(r)-1
		if r[0].key.less(&r[m].key) {
			r[0], r[m] = r[m], r[0]
		}
		if r[m].key.less(&r[hi].key) {
			r[m], r[hi] = r[hi], r[m]
			if r[0].key.less(&r[m].key) {
				r[0], r[m] = r[m], r[0]
			}
		}
		// Hoare partition around the median, now at m with r[0] >= p >=
		// r[hi] as sentinels: afterwards r[:j+1] >= p >= r[j+1:], both
		// non-empty.
		p := r[m].key
		i, j := -1, len(r)
		for {
			for i++; p.less(&r[i].key); i++ {
			}
			for j--; r[j].key.less(&p); j-- {
			}
			if i >= j {
				break
			}
			r[i], r[j] = r[j], r[i]
		}
		// Recurse into the smaller part, loop on the larger.
		if j+1 <= len(r)/2 {
			sortRun(r[:j+1])
			r = r[j+1:]
		} else {
			sortRun(r[j+1:])
			r = r[:j+1]
		}
	}
	for i := 1; i < len(r); i++ {
		e := r[i]
		j := i
		for ; j > 0 && r[j-1].key.less(&e.key); j-- {
			r[j] = r[j-1]
		}
		r[j] = e
	}
}

// popMin deletes the root — the pop half of every simulation step, so it
// uses the bottom-up deletion of Wegener's heapsort analysis: the root hole
// sinks to a leaf along minimal children (no comparisons against the
// relocated tail record), the tail record drops into the hole, and a sift-up
// fixes the rare case where it did not belong that deep. The relocated
// record is almost always a recent leaf, so the sift-up typically costs one
// comparison and zero moves — saving a comparison per level versus the
// classic move-tail-to-root-and-sink pop.
func (el *EventList) popMin() {
	keys, vals := el.keys, el.vals
	last := len(keys) - 1
	if last > 0 {
		// Sink the root hole to a leaf, excluding index `last` (the record
		// being relocated) from the scans.
		i := 0
		for {
			first := 4*i + 1
			if first >= last {
				break
			}
			end := first + 4
			if end > last {
				end = last
			}
			smallest := minChild(keys, first, end)
			el.set(i, keys[smallest], vals[smallest])
			i = smallest
		}
		el.set(i, keys[last], vals[last])
		vals[last] = eventVal{}
		el.keys = keys[:last]
		el.vals = vals[:last]
		el.up(i)
		return
	}
	vals[0] = eventVal{}
	el.keys = keys[:0]
	el.vals = vals[:0]
}

// remove deletes the record at heap index i, keeping slot indices current.
// The vacated tail value is zeroed so the heap never retains a Handler or
// closure beyond the event's life.
func (el *EventList) remove(i int) {
	last := len(el.keys) - 1
	if i != last {
		el.set(i, el.keys[last], el.vals[last])
	}
	el.vals[last] = eventVal{}
	el.keys = el.keys[:last]
	el.vals = el.vals[:last]
	if i < last {
		// At most one direction applies: the replacement either sinks or
		// (when removing mid-heap) may need to rise past its new parent.
		if !el.down(i) {
			el.up(i)
		}
	}
}

// set writes a record into position i and updates its slot if cancellable.
func (el *EventList) set(i int, k eventKey, v eventVal) {
	el.keys[i] = k
	el.vals[i] = v
	if v.id >= 0 {
		el.slots[v.id] = int32(i)
	}
}

func (el *EventList) allocSlot() EventID {
	if n := len(el.free); n > 0 {
		id := el.free[n-1]
		el.free = el.free[:n-1]
		return EventID(id)
	}
	el.slots = append(el.slots, -1) // grows to peak concurrent cancelable events once, then the free-list recycles ids
	return EventID(len(el.slots) - 1)
}

func (el *EventList) freeSlot(id EventID) {
	el.slots[id] = -1
	el.free = append(el.free, int32(id)) // capacity bounded by the slot table
}

// up sifts index i toward the root (parent of i is (i-1)/4). It moves a
// hole rather than swapping: parents shift down one copy each, and the
// moving record is written exactly once at its final position. The fast
// path (already in place, the common case for pushes into a deep heap)
// performs one comparison and zero writes.
func (el *EventList) up(i int) {
	keys := el.keys
	if i == 0 {
		return
	}
	parent := (i - 1) >> 2 // i > 0, so the shift is an exact /4
	if !keys[i].less(&keys[parent]) {
		return
	}
	k, v := keys[i], el.vals[i]
	for {
		el.set(i, keys[parent], el.vals[parent])
		i = parent
		if i == 0 {
			break
		}
		parent = (i - 1) >> 2
		if !k.less(&keys[parent]) {
			break
		}
	}
	el.set(i, k, v)
}

// down sifts index i toward the leaves (children of i are 4i+1 .. 4i+4),
// with the same single-write hole technique as up, and reports whether the
// record moved. Only 16-byte keys are read while choosing a child.
func (el *EventList) down(i int) bool {
	keys := el.keys
	n := len(keys)
	k, v := keys[i], el.vals[i]
	moved := false
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		end := first + 4
		if end > n {
			end = n
		}
		smallest := minChild(keys, first, end)
		if !keys[smallest].less(&k) {
			break
		}
		el.set(i, keys[smallest], el.vals[smallest])
		i = smallest
		moved = true
	}
	if moved {
		el.set(i, k, v)
	}
	return moved
}

// Timer is a restartable one-shot timer bound to an EventList, used for
// retransmission timeouts. A Timer may be rescheduled or stopped at any
// time. Reset and Stop operate on the timer's single in-heap entry —
// rescheduling moves it, stopping removes it — so a timer contributes at
// most one pending event no matter how often it is re-armed. (The previous
// implementation abandoned a dead closure in the heap on every Reset, which
// made RTO-heavy incasts accumulate thousands of ghost events.)
type Timer struct {
	el *EventList
	fn func()
	h  Handler
	id EventID
}

// NewTimer returns a stopped timer that will invoke fn on expiry: one
// allocation per pooled endpoint, reused via Reset/Stop in steady state
// (embed a Timer by value and Init it to avoid even that).
func NewTimer(el *EventList, fn func()) *Timer {
	t := &Timer{}
	t.Init(el, fn)
	return t
}

// Init readies a timer in place: the allocation-free NewTimer, for a Timer
// embedded by value in a larger struct.
func (t *Timer) Init(el *EventList, fn func()) {
	*t = Timer{el: el, fn: fn, id: NoEvent}
}

// InitHandler is Init with a Handler expiry instead of a closure — storing
// a pointer in an interface field does not allocate, where binding a
// method value does.
func (t *Timer) InitHandler(el *EventList, h Handler) {
	*t = Timer{el: el, h: h, id: NoEvent}
}

// OnEvent is the timer's expiry; it is public only to satisfy Handler.
func (t *Timer) OnEvent(uint64) {
	t.id = NoEvent
	if t.h != nil {
		t.h.OnEvent(0)
		return
	}
	t.fn()
}

// Reset (re)arms the timer to fire d from now.
func (t *Timer) Reset(d Time) { t.ResetAt(t.el.Now() + d) }

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	if t.id != NoEvent {
		t.el.Reschedule(t.id, at)
		return
	}
	t.id = t.el.ScheduleCancelable(at, t, 0)
}

// Stop disarms the timer. It is safe to call on a stopped timer.
func (t *Timer) Stop() {
	if t.id != NoEvent {
		t.el.Cancel(t.id)
		t.id = NoEvent
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.id != NoEvent }
