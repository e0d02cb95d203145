package sim

import (
	"sort"
	"testing"
)

// This file checks the two-tier scheduler against a naive reference model:
// a flat slice popped by linear minimum scan over (time, ord). The model is
// obviously correct — the scheduler must match it operation for operation,
// including equal-timestamp ties across all four ord classes, interleaved
// cancels and in-place reschedules, events that cross from one wheel lap
// into the next, and pushes made from inside a handler.

type refEvent struct {
	at  Time
	ord uint64
	tag uint64
}

type refModel struct {
	now    Time
	seq    uint64
	events []refEvent
}

// schedule mirrors a plain push: clamp, then the next FIFO ord.
func (m *refModel) schedule(t Time, tag uint64) {
	m.seq++
	m.scheduleKeyed(t, ordNormal|m.seq, tag)
}

func (m *refModel) scheduleKeyed(t Time, ord, tag uint64) {
	if t < m.now {
		t = m.now
	}
	m.events = append(m.events, refEvent{at: t, ord: ord, tag: tag})
}

func (m *refModel) minIndex() int {
	best := -1
	for i, e := range m.events {
		if best < 0 || e.at < m.events[best].at ||
			(e.at == m.events[best].at && e.ord < m.events[best].ord) {
			best = i
		}
	}
	return best
}

// nextAt is the earliest pending time, Infinity when empty.
func (m *refModel) nextAt() Time {
	if i := m.minIndex(); i >= 0 {
		return m.events[i].at
	}
	return Infinity
}

// pop fires the earliest event, returning its tag, or false when empty.
func (m *refModel) pop() (uint64, bool) {
	i := m.minIndex()
	if i < 0 {
		return 0, false
	}
	e := m.events[i]
	m.events = append(m.events[:i], m.events[i+1:]...)
	m.now = e.at
	return e.tag, true
}

func (m *refModel) cancel(tag uint64) bool {
	for i, e := range m.events {
		if e.tag == tag {
			m.events = append(m.events[:i], m.events[i+1:]...)
			return true
		}
	}
	return false
}

func (m *refModel) reschedule(tag uint64, t Time) bool {
	for i := range m.events {
		if m.events[i].tag == tag {
			if t < m.now {
				t = m.now
			}
			m.seq++
			m.events[i].at = t
			m.events[i].ord = ordNormal | m.seq
			return true
		}
	}
	return false
}

// tagRecorder logs fired tags from the EventList side.
type tagRecorder struct{ log []uint64 }

func (r *tagRecorder) OnEvent(arg uint64) { r.log = append(r.log, arg) }

// spawner is a handler that schedules from inside the event loop, where the
// wheel's run is loaded and now sits in its bucket: one child at now, one a
// few ns ahead (usually the active bucket) and a keyed one at the same
// instant as the second. arg is tag | delay-in-ns << 48.
type spawner struct {
	el  *EventList
	rec *tagRecorder
}

const spawnTagMask = 1<<48 - 1

// spawnChildTag names child k of the spawner event tagged tag.
func spawnChildTag(tag uint64, k int) uint64 { return 1<<40 | tag<<2 | uint64(k) }

func (s *spawner) OnEvent(arg uint64) {
	tag, d := arg&spawnTagMask, Time(arg>>48)*Nanosecond
	s.rec.log = append(s.rec.log, tag)
	now := s.el.Now()
	s.el.Schedule(now, s.rec, spawnChildTag(tag, 0))
	s.el.ScheduleAfter(d, s.rec, spawnChildTag(tag, 1))
	s.el.ScheduleKeyed(now+d, PFCOrd(1, tag), s.rec, spawnChildTag(tag, 2))
}

// keyedOrd builds an ord of class 0-2 (delivery, command, PFC); any other
// class is plain FIFO, reported as 0: the caller uses Schedule.
func keyedOrd(class, uid uint32, seq uint64) uint64 {
	switch class {
	case 0:
		return DeliveryOrd(uid, seq)
	case 1:
		return CommandOrd(uid, seq)
	case 2:
		return PFCOrd(uid, seq)
	}
	return 0
}

// runSchedulerOps drives an EventList and the reference model through the
// same operation stream and fails the test on any divergence. Each byte
// pair of ops selects an operation and a time offset, so the corpus is
// trivially minimizable by the fuzzer. It returns the list's tier counters
// so callers can check a stream reached the tier it was written for.
func runSchedulerOps(t *testing.T, ops []byte) QueueStats {
	t.Helper()
	el := NewEventList()
	model := &refModel{}
	rec := &tagRecorder{}
	spawn := &spawner{el: el, rec: rec}
	spawnDelay := make(map[uint64]Time) // spawner tag -> its children's delay
	var modelLog []uint64
	var nextTag uint64

	// Live cancellable events, in creation order so picks are deterministic.
	// EventIDs recycle once an event fires or is cancelled, so entries must
	// be pruned (fired) or removed (cancelled) before the id can be reused —
	// otherwise a stale entry would alias a newer event's id.
	type liveEv struct {
		tag uint64
		id  EventID
	}
	var live []liveEv
	fired := make(map[uint64]bool)
	pruneLive := func() {
		kept := live[:0]
		for _, le := range live {
			if !fired[le.tag] {
				kept = append(kept, le)
			}
		}
		live = kept
	}

	// modelFire pops the model's earliest event and mirrors what its
	// handler does on the EventList side.
	modelFire := func() (uint64, bool) {
		tag, ok := model.pop()
		if !ok {
			return 0, false
		}
		modelLog = append(modelLog, tag)
		fired[tag] = true
		if d, ok := spawnDelay[tag]; ok {
			model.schedule(model.now, spawnChildTag(tag, 0))
			model.schedule(model.now+d, spawnChildTag(tag, 1))
			model.scheduleKeyed(model.now+d, PFCOrd(1, tag), spawnChildTag(tag, 2))
		}
		return tag, true
	}
	checkClock := func(what string) {
		if el.Now() != model.now {
			t.Fatalf("clock mismatch after %s: scheduler %v, model %v", what, el.Now(), model.now)
		}
	}
	step := func() {
		stepped := el.Step()
		_, ok := modelFire()
		if stepped != ok {
			t.Fatalf("step mismatch: scheduler stepped=%v, model had event=%v", stepped, ok)
		}
		checkClock("a step")
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, off := ops[i], Time(ops[i+1])
		at := el.Now() + (off-16)*Nanosecond // occasionally in the past: clamp path
		switch op % 16 {
		case 0, 1: // typed handler event
			nextTag++
			el.Schedule(at, rec, nextTag)
			model.schedule(at, nextTag)
		case 2: // closure fallback event
			nextTag++
			tag := nextTag
			el.At(at, func() { rec.log = append(rec.log, tag) })
			model.schedule(at, tag)
		case 3, 4: // cancellable event
			pruneLive()
			nextTag++
			id := el.ScheduleCancelable(at, rec, nextTag)
			model.schedule(at, nextTag)
			live = append(live, liveEv{tag: nextTag, id: id})
		case 5: // cancel a live event
			pruneLive()
			if len(live) > 0 {
				pick := int(off) % len(live)
				le := live[pick]
				got := el.Cancel(le.id)
				want := model.cancel(le.tag)
				if got != want {
					t.Fatalf("cancel(tag %d) mismatch: scheduler %v, model %v", le.tag, got, want)
				}
				live = append(live[:pick], live[pick+1:]...)
			}
		case 6: // reschedule a live event
			pruneLive()
			if len(live) > 0 {
				le := live[int(off/2)%len(live)]
				got := el.Reschedule(le.id, at)
				want := model.reschedule(le.tag, at)
				if got != want {
					t.Fatalf("reschedule(tag %d) mismatch: scheduler %v, model %v", le.tag, got, want)
				}
			}
		case 7: // pop
			step()
		case 8: // far event, 16.0-41.5 us ahead: either side of the wheel's span
			nextTag++
			far := el.Now() + 16*Microsecond + off*100*Nanosecond
			el.Schedule(far, rec, nextTag)
			model.schedule(far, nextTag)
		case 9: // one of the four ord classes, 0-60 ns ahead in 4 ns steps: ties within a bucket
			nextTag++
			tie := el.Now() + (off>>4)*4*Nanosecond
			if ord := keyedOrd(uint32(off&3), uint32(off>>2&3), nextTag); ord != 0 {
				el.ScheduleKeyed(tie, ord, rec, nextTag)
				model.scheduleKeyed(tie, ord, nextTag)
			} else {
				el.Schedule(tie, rec, nextTag)
				model.schedule(tie, nextTag)
			}
		case 10: // idle jump of up to 15 wheel laps
			deadline := el.Now() + off*Microsecond
			el.RunUntil(deadline)
			for model.nextAt() <= deadline {
				if _, ok := modelFire(); !ok {
					break
				}
			}
			model.now = deadline
			checkClock("RunUntil")
		case 11: // peek, then advance an idle clock as far as the peek allows
			next := model.nextAt()
			if got := el.NextAt(); got != next {
				t.Fatalf("NextAt = %v, model says %v", got, next)
			}
			to := min(el.Now()+off*Microsecond, next)
			el.AdvanceTo(to)
			model.now = max(model.now, to)
			checkClock("AdvanceTo")
		case 12: // event whose handler schedules at now and into the active bucket
			nextTag++
			d := off & 15
			el.Schedule(at, spawn, nextTag|uint64(d)<<48)
			model.schedule(at, nextTag)
			spawnDelay[nextTag] = d * Nanosecond
		case 13: // lockstep cluster: a handful of ties, or 200+ (beyond the sort's insertion cutoff)
			n := int(off)
			if n < 200 {
				n = n%8 + 1
			}
			tie := el.Now() + 100*Nanosecond
			for k := 0; k < n; k++ {
				nextTag++
				el.Schedule(tie, rec, nextTag)
				model.schedule(tie, nextTag)
			}
		case 14: // a shard window: everything strictly before the limit, clock left at the last event
			limit := el.Now() + off*100*Nanosecond
			el.RunBefore(limit)
			for model.nextAt() < limit {
				if _, ok := modelFire(); !ok {
					break
				}
			}
			checkClock("RunBefore")
		case 15: // pop burst: back down through the sparse threshold
			for k := int(off) % 32; k > 0; k-- {
				step()
			}
		}
		if el.Len() != len(model.events) {
			t.Fatalf("pending count mismatch after op %d: scheduler %d, model %d", i, el.Len(), len(model.events))
		}
	}
	// Drain both completely; the full pop order must match.
	for el.Len() > 0 || len(model.events) > 0 {
		step()
	}
	if len(rec.log) != len(modelLog) {
		t.Fatalf("fired %d events, model fired %d", len(rec.log), len(modelLog))
	}
	for i := range rec.log {
		if rec.log[i] != modelLog[i] {
			t.Fatalf("pop order diverged at %d: scheduler fired tag %d, model tag %d", i, rec.log[i], modelLog[i])
		}
	}
	for i := range el.nodes {
		if el.nodes[i].h != nil {
			t.Fatalf("drained list still holds a Handler in wheel node %d", i)
		}
	}
	return el.QueueStats()
}

// TestSchedulerVsReference drives long random op streams from fixed seeds —
// the always-on property test behind FuzzEventList — and checks that between
// them they reached both tiers and every admission clause.
func TestSchedulerVsReference(t *testing.T) {
	var total QueueStats
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRand(seed)
		ops := make([]byte, 2000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		total.Add(runSchedulerOps(t, ops))
	}
	if total.WheelPops == 0 || total.HeapPops == 0 || total.MaxRun < 200 ||
		total.HeapCancelable == 0 || total.HeapBeyondSpan == 0 || total.HeapActiveBucket == 0 || total.HeapSparse == 0 {
		t.Errorf("random streams missed a tier or an admission clause: %+v", total)
	}
}

// Boundary streams, one per way an event can meet the wheel's edges. Each
// interleaves cancels and reschedules, is checked on its own by
// TestWheelBoundaryStreams and seeds FuzzEventList's corpus.

// fill is n plain events 30-60 ns ahead: enough pending to open the wheel.
func fill(n int) []byte {
	var ops []byte
	for i := 0; i < n; i++ {
		ops = append(ops, 0, byte(46+i%30))
	}
	return ops
}

// farThenNear parks events beyond the span (heap), then lets near events
// (wheel) and pops overtake them until the far ones fall due.
func farThenNear() []byte {
	ops := fill(20)
	for i := 0; i < 12; i++ {
		ops = append(ops, 8, byte(i*23), 3, 200, 8, 250)
	}
	for i := 0; i < 400; i++ {
		ops = append(ops, 0, byte(40+i%200), 7, 0)
		if i%7 == 0 {
			ops = append(ops, 6, byte(i), 5, byte(i))
		}
	}
	return ops
}

// keyedTies puts all four ord classes on shared timestamps in one bucket,
// from both tiers (cancellable ties take the heap).
func keyedTies() []byte {
	ops := fill(20)
	for off := 0; off < 64; off++ {
		ops = append(ops, 9, byte(off), 9, byte(off^0x13), 3, 16+4)
	}
	ops = append(ops, 6, 3, 5, 1, 15, 31, 15, 31)
	for off := 64; off < 128; off++ {
		ops = append(ops, 9, byte(off), 7, 0)
	}
	return ops
}

// lapJumps crosses several laps at a time with RunUntil and AdvanceTo, so
// bucket indices wrap and the bitmap scan starts in every word and runs
// over the end of the bitmap.
func lapJumps() []byte {
	var ops []byte
	for i := 0; i < 30; i++ {
		ops = append(ops, fill(40)...)
		ops = append(ops, 8, byte(i*6), 0, 255, 3, 250, 11, byte(i), 10, byte(3+i*5), 6, 9)
		ops = append(ops, 0, 20, 0, 255, 11, 200, 14, byte(i*3))
	}
	return ops
}

// handlerPushes fires spawners with a run loaded, so their children land at
// now and inside the bucket being drained.
func handlerPushes() []byte {
	ops := fill(24)
	for i := 0; i < 120; i++ {
		ops = append(ops, 12, byte(16+i%48), 12, byte(17+i%5), 0, byte(30+i), 7, 0, 7, 0)
		if i%9 == 0 {
			ops = append(ops, 4, 40, 6, byte(i), 14, 2)
		}
	}
	return ops
}

// lockstep loads runs of 200+ ties, with a cancellable tie in the middle of
// each and stragglers behind it.
func lockstep() []byte {
	ops := fill(16)
	for _, n := range []byte{200, 255, 231} {
		ops = append(ops, 13, n, 3, 116, 13, 5, 13, n, 6, 0, 0, 116)
		ops = append(ops, 15, 31, 15, 31, 5, 0, 10, 1)
	}
	return ops
}

// sparseBoundary walks the pending count up and down across 15/16: pushes
// on the low side take the heap, on the high side the wheel.
func sparseBoundary() []byte {
	ops := fill(15)
	for i := 0; i < 60; i++ {
		ops = append(ops, 0, byte(60+i), 0, byte(70+i), 7, 0, 7, 0, 7, 0, 0, 90, 3, 80, 5, 0, 0, 100, 7, 0)
	}
	return ops
}

func boundaryStreams() map[string][]byte {
	return map[string][]byte{
		"far-then-near":   farThenNear(),
		"keyed-ties":      keyedTies(),
		"lap-jumps":       lapJumps(),
		"handler-pushes":  handlerPushes(),
		"lockstep":        lockstep(),
		"sparse-boundary": sparseBoundary(),
	}
}

func TestWheelBoundaryStreams(t *testing.T) {
	reached := map[string]func(QueueStats) bool{
		"far-then-near":   func(s QueueStats) bool { return s.HeapBeyondSpan >= 20 && s.WheelPops > 300 },
		"keyed-ties":      func(s QueueStats) bool { return s.WheelPops > 100 && s.HeapCancelable >= 64 },
		"lap-jumps":       func(s QueueStats) bool { return s.Runs > 100 && s.WheelPops > 500 && s.HeapBeyondSpan > 0 },
		"handler-pushes":  func(s QueueStats) bool { return s.HeapActiveBucket > 100 && s.WheelPops > 100 },
		"lockstep":        func(s QueueStats) bool { return s.MaxRun >= 400 },
		"sparse-boundary": func(s QueueStats) bool { return s.HeapSparse > 30 && s.WheelPops > 30 },
	}
	for name, ops := range boundaryStreams() {
		if len(ops) > 4096 {
			t.Errorf("%s: %d bytes, over the fuzz target's 4096-byte cut", name, len(ops))
		}
		if s := runSchedulerOps(t, ops); !reached[name](s) {
			t.Errorf("%s did not reach the case it is named for: %+v", name, s)
		}
	}
}

// FuzzEventList lets the fuzzer hunt for op interleavings the random
// streams miss: go test -fuzz=FuzzEventList ./internal/sim
func FuzzEventList(f *testing.F) {
	f.Add([]byte{0, 20, 3, 10, 7, 0, 5, 0, 7, 0})
	f.Add([]byte{3, 5, 3, 5, 6, 1, 6, 200, 7, 0, 7, 0})
	f.Add([]byte{2, 30, 0, 30, 3, 30, 5, 1, 7, 9})
	for n := 1; n <= 70; n++ {
		f.Add(heapShapeOps(n))
	}
	for _, ops := range boundaryStreams() {
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runSchedulerOps(t, ops)
	})
}

// heapShapeOps is an op stream that builds a heap of exactly n events tied
// at one timestamp (offsets below 16 lie in the past and clamp to now),
// sinks one of them with a reschedule, and drains it: n = 1…70 walks the
// sift kernel through every shape of last sibling group, one to four
// children, at one to four levels.
func heapShapeOps(n int) []byte {
	ops := make([]byte, 0, 4*n+2)
	for i := 0; i < n; i++ {
		ops = append(ops, 3, byte(i%16)) // cancellable, clamped to now
	}
	ops = append(ops, 6, 200) // reschedule one to far later: a full sift-down
	for i := 0; i < n; i++ {
		ops = append(ops, 7, 0)
	}
	return ops
}

func TestHeapShapesVsReference(t *testing.T) {
	for n := 1; n <= 70; n++ {
		runSchedulerOps(t, heapShapeOps(n))
	}
}

// TestPopOrderEveryHeapSize checks pop order against a sorted slice for
// every heap size 1…70, with three timestamps shared among all events (so
// most comparisons are decided by ord) and keys from all four ord classes.
func TestPopOrderEveryHeapSize(t *testing.T) {
	for n := 1; n <= 70; n++ {
		r := NewRand(uint64(n))
		el := NewEventList()
		rec := &tagRecorder{}
		type keyed struct {
			key eventKey
			tag uint64
		}
		want := make([]keyed, n)
		for i := range want {
			at, tag := Time(r.Intn(3)), uint64(i)
			uid, seq := uint32(r.Intn(4)), uint64(i)
			ord := keyedOrd(uint32(r.Intn(5)), uid, seq) // classes 3 and 4: plain FIFO
			if ord != 0 {
				el.ScheduleKeyed(at, ord, rec, tag)
			} else {
				el.Schedule(at, rec, tag)
				ord = ordNormal | el.seq
			}
			want[i] = keyed{eventKey{at: at, ord: ord}, tag}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].key.less(&want[j].key) })
		el.Run()
		if len(rec.log) != n {
			t.Fatalf("n=%d: fired %d events", n, len(rec.log))
		}
		for i := range want {
			if rec.log[i] != want[i].tag {
				t.Fatalf("n=%d: pop %d fired tag %d, sorted reference says %d", n, i, rec.log[i], want[i].tag)
			}
		}
	}
}

// TestLessWordMatchesLess: the branch-free compare is the branchy one, on
// every pair of a table that has equal keys, timestamp ties across all four
// ord classes, Infinity and the largest ord.
func TestLessWordMatchesLess(t *testing.T) {
	var keys []eventKey
	for _, at := range []Time{0, 1, Microsecond, Infinity - 1, Infinity} {
		for _, ord := range []uint64{
			0, DeliveryOrd(0, 1), DeliveryOrd(ordUIDMax-1, 1<<ordSeqBits-1),
			CommandOrd(0, 0), CommandOrd(3, 9),
			ordNormal, ordNormal | 1, ordNormal | (1<<62 - 1),
			PFCOrd(0, 0), PFCOrd(ordUIDMax-1, 1<<ordSeqBits-1), ^uint64(0),
		} {
			keys = append(keys, eventKey{at: at, ord: ord})
		}
	}
	if last := keys[len(keys)-1]; last.at != Infinity || last.ord != PFCOrd(ordUIDMax-1, 1<<ordSeqBits-1) {
		t.Fatalf("table does not end on the largest key: %+v", last)
	}
	for _, a := range keys {
		for _, b := range keys {
			want := 0
			if a.less(&b) {
				want = 1
			}
			if got := lessWord(a, b); got != want {
				t.Errorf("lessWord(%+v, %+v) = %d, less says %d", a, b, got, want)
			}
		}
	}
}

// TestMinChildTiesGoLeft: with duplicate keys in a sibling group (keyed
// events may share a key) the tournament picks the same child the scalar
// scan does — the leftmost minimum — so which of two equal events pops
// first never depended on the group being full.
func TestMinChildTiesGoLeft(t *testing.T) {
	lo, hi := eventKey{at: 1, ord: 5}, eventKey{at: 1, ord: 6}
	for mask := 0; mask < 16; mask++ {
		group := make([]eventKey, 5) // index 0 stands for the parent
		want := 0
		for c := 1; c <= 4; c++ {
			group[c] = hi
			if mask&(1<<(c-1)) != 0 {
				group[c] = lo
				if want == 0 {
					want = c
				}
			}
		}
		if want == 0 {
			want = 1
		}
		if got := minChild(group, 1, 5); got != want {
			t.Errorf("minimum at children %04b: minChild = %d, want %d", mask, got, want)
		}
	}
}

// TestTimerResetBoundedHeap is the regression test for the ghost-entry leak:
// Reset/Stop used to abandon a dead closure in the heap until its old expiry
// time, so an RTO-heavy sender grew the heap by one entry per reset. A timer
// must contribute at most one pending event no matter how often it is
// re-armed.
func TestTimerResetBoundedHeap(t *testing.T) {
	el := NewEventList()
	fired := 0
	tm := NewTimer(el, func() { fired++ })
	const resets = 10_000
	for i := 0; i < resets; i++ {
		tm.Reset(Millisecond)
		if i%64 == 0 {
			el.RunUntil(el.Now() + Microsecond)
		}
		if n := el.Len(); n > 1 {
			t.Fatalf("heap holds %d events after %d resets, want <= 1 (ghost-entry leak)", n, i+1)
		}
	}
	// Stop must remove the in-heap entry entirely, not leave a tombstone.
	tm.Stop()
	if n := el.Len(); n != 0 {
		t.Fatalf("heap holds %d events after Stop, want 0", n)
	}
	if fired != 0 {
		t.Fatalf("timer fired %d times while being continually reset", fired)
	}
	// And a final arm still works.
	tm.Reset(Microsecond)
	el.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times after final arm, want 1", fired)
	}
}

// TestCancelReschedulePublicAPI covers the id lifecycle edges: double
// cancel, cancel after fire, Pending on dead ids, and id reuse.
func TestCancelReschedulePublicAPI(t *testing.T) {
	el := NewEventList()
	rec := &tagRecorder{}
	id := el.ScheduleCancelable(5*Microsecond, rec, 1)
	if !el.Pending(id) || el.NextAt() != 5*Microsecond {
		t.Fatalf("live event not visible: pending=%v next=%v", el.Pending(id), el.NextAt())
	}
	if !el.Reschedule(id, 2*Microsecond) {
		t.Fatal("reschedule of live event failed")
	}
	if el.NextAt() != 2*Microsecond {
		t.Fatalf("NextAt after reschedule = %v, want 2us", el.NextAt())
	}
	if !el.Cancel(id) {
		t.Fatal("cancel of live event failed")
	}
	if el.Cancel(id) {
		t.Fatal("double cancel succeeded")
	}
	if el.Reschedule(id, Microsecond) {
		t.Fatal("reschedule of cancelled event succeeded")
	}
	if el.Pending(id) || el.NextAt() != Infinity {
		t.Fatal("cancelled event still visible")
	}
	if el.Pending(NoEvent) || el.Cancel(NoEvent) {
		t.Fatal("NoEvent behaved like a live id")
	}

	id2 := el.ScheduleCancelable(Microsecond, rec, 2)
	el.Run()
	if len(rec.log) != 1 || rec.log[0] != 2 {
		t.Fatalf("fired %v, want [2] (cancelled event must not fire)", rec.log)
	}
	if el.Cancel(id2) {
		t.Fatal("cancel after fire succeeded")
	}
}
