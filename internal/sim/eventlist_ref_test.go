package sim

import (
	"sort"
	"testing"
)

// This file checks the indexed-heap scheduler against a naive reference
// model: a flat slice popped by linear minimum scan over (time, seq). The
// model is obviously correct — the heap must match it operation for
// operation, including equal-timestamp FIFO ties, interleaved cancels and
// in-place reschedules.

type refEvent struct {
	at  Time
	seq uint64
	tag uint64
}

type refModel struct {
	now    Time
	seq    uint64
	events []refEvent
}

func (m *refModel) schedule(t Time, tag uint64) {
	if t < m.now {
		t = m.now
	}
	m.seq++
	m.events = append(m.events, refEvent{at: t, seq: m.seq, tag: tag})
}

func (m *refModel) minIndex() int {
	best := -1
	for i, e := range m.events {
		if best < 0 || e.at < m.events[best].at ||
			(e.at == m.events[best].at && e.seq < m.events[best].seq) {
			best = i
		}
	}
	return best
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
			m.events[i].seq = m.seq
			return true
		}
	}
	return false
}

// tagRecorder logs fired tags from the EventList side.
type tagRecorder struct{ log []uint64 }

func (r *tagRecorder) OnEvent(arg uint64) { r.log = append(r.log, arg) }

// runSchedulerOps drives an EventList and the reference model through the
// same operation stream and fails the test on any divergence. Each byte
// pair of ops selects an operation and a time offset, so the corpus is
// trivially minimizable by the fuzzer.
func runSchedulerOps(t *testing.T, ops []byte) {
	t.Helper()
	el := NewEventList()
	model := &refModel{}
	rec := &tagRecorder{}
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

	step := func() {
		stepped := el.Step()
		tag, ok := model.pop()
		if stepped != ok {
			t.Fatalf("step mismatch: heap stepped=%v, model had event=%v", stepped, ok)
		}
		if !ok {
			return
		}
		modelLog = append(modelLog, tag)
		fired[tag] = true
		if el.Now() != model.now {
			t.Fatalf("clock mismatch after firing tag %d: heap %v, model %v", tag, el.Now(), model.now)
		}
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, off := ops[i], Time(ops[i+1])
		at := el.Now() + (off-16)*Nanosecond // occasionally in the past: clamp path
		switch op % 8 {
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
					t.Fatalf("cancel(tag %d) mismatch: heap %v, model %v", le.tag, got, want)
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
					t.Fatalf("reschedule(tag %d) mismatch: heap %v, model %v", le.tag, got, want)
				}
			}
		case 7: // pop
			step()
		}
		if el.Len() != len(model.events) {
			t.Fatalf("pending count mismatch after op %d: heap %d, model %d", i, el.Len(), len(model.events))
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
			t.Fatalf("pop order diverged at %d: heap fired tag %d, model tag %d\nheap  %v\nmodel %v",
				i, rec.log[i], modelLog[i], rec.log, modelLog)
		}
	}
}

// TestSchedulerVsReference drives long random op streams from fixed seeds —
// the always-on property test behind FuzzEventList.
func TestSchedulerVsReference(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRand(seed)
		ops := make([]byte, 2000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		runSchedulerOps(t, ops)
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
			var ord uint64
			switch r.Intn(5) {
			case 0:
				ord = DeliveryOrd(uid, seq)
			case 1:
				ord = CommandOrd(uid, seq)
			case 2:
				ord = PFCOrd(uid, seq)
			}
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
// cancel, cancel after fire, EventTime/Pending on dead ids, and id reuse.
func TestCancelReschedulePublicAPI(t *testing.T) {
	el := NewEventList()
	rec := &tagRecorder{}
	id := el.ScheduleCancelable(5*Microsecond, rec, 1)
	if !el.Pending(id) || el.EventTime(id) != 5*Microsecond {
		t.Fatalf("live event not visible: pending=%v at=%v", el.Pending(id), el.EventTime(id))
	}
	if !el.Reschedule(id, 2*Microsecond) {
		t.Fatal("reschedule of live event failed")
	}
	if el.EventTime(id) != 2*Microsecond {
		t.Fatalf("EventTime after reschedule = %v, want 2us", el.EventTime(id))
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
	if el.Pending(id) || el.EventTime(id) != Infinity {
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
