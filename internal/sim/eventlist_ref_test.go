package sim

import (
	"slices"
	"sort"
	"testing"
)

// This file checks the two-tier scheduler against a naive reference model:
// a flat slice popped by linear minimum scan over (time, ord). The model is
// obviously correct — the scheduler must match it operation for operation,
// including equal-timestamp ties across all four ord classes, events that
// cross from one wheel lap into the next, and pushes made from inside a
// handler. The model is also the oracle for Timer: it keeps each armed
// timer as one event it cancels and reschedules eagerly in place, which is
// what the timer's lazily carried entries must be indistinguishable from.

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

// reschedule moves a pending event to t under the next FIFO ord, as if it
// were cancelled and scheduled anew.
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

// arm is a timer's ResetAt: its one event, moved or scheduled anew.
func (m *refModel) arm(tag uint64, t Time) {
	if !m.reschedule(tag, t) {
		m.schedule(t, tag)
	}
}

func (m *refModel) pending(tag uint64) bool {
	for _, e := range m.events {
		if e.tag == tag {
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

// schedTimers is how many timers a stream drives; the high nibble of an op
// byte picks one.
const schedTimers = 4

// timerTag is the tag a timer's expiry logs.
func timerTag(k int) uint64 { return 1<<56 | uint64(k) }

// streamStats is what a stream reached: the list's tier counters, and the
// timer and list edges counted by the harness just before the operation that
// takes them.
type streamStats struct {
	Queue QueueStats
	// Earlier: an armed timer moved before the entry it relied on.
	// RearmStopped: a stopped timer re-armed while its old entry is pending.
	// RearmAtStale: of those, re-armed at exactly the old entry's time.
	// InitPending: InitHandler with an entry pending.
	// Past: a reset to a time before now.
	// ResetPending: the list Reset with wheel, heap and timer entries
	// pending.
	Earlier, RearmStopped, RearmAtStale, InitPending, Past, ResetPending int
}

func (s *streamStats) add(o streamStats) {
	s.Queue.Add(o.Queue)
	s.Earlier += o.Earlier
	s.RearmStopped += o.RearmStopped
	s.RearmAtStale += o.RearmAtStale
	s.InitPending += o.InitPending
	s.Past += o.Past
	s.ResetPending += o.ResetPending
}

// timerKeys lists the keys of the pending events whose handler is a Timer,
// in both tiers (a wheel node holds a Handler exactly while its event is
// pending).
func timerKeys(el *EventList) []eventKey {
	var keys []eventKey
	for i, v := range el.vals {
		if _, ok := v.h.(*Timer); ok {
			keys = append(keys, el.keys[i])
		}
	}
	for i := range el.nodes {
		if _, ok := el.nodes[i].h.(*Timer); ok {
			keys = append(keys, el.nodes[i].key)
		}
	}
	return keys
}

// resetOp is the op byte that resets the list: a pop's byte with the high
// nibble set, which a pop ignores.
const resetOp = 0xf7

// runSchedulerOps drives an EventList and the reference model through the
// same operation stream and fails the test on any divergence. Each byte
// pair of ops selects an operation and a time offset, so the corpus is
// trivially minimizable by the fuzzer. It returns the list's tier counters
// and the timer and list edges reached, summed over the stream, so callers
// can check a stream reached the case it was written for.
//
// A reset op splits the stream: the list is Reset with whatever it has
// pending, and the rest of the stream runs on it with a new reference model
// and new timers. Up to the next reset, the reset list must then be a new
// one: the same rest of the stream run on a NewEventList must fire the same
// events and end with the same clock, pending count, tier counters and edges.
func runSchedulerOps(t *testing.T, ops []byte) streamStats {
	t.Helper()
	el := NewEventList()
	seg := runSegment(t, el, ops)
	total := seg.st
	for seg.reset {
		el.Reset()
		for i, v := range el.vals[:cap(el.vals)] {
			if v.h != nil {
				t.Fatalf("reset list still holds a Handler in heap slot %d", i)
			}
		}
		for i, n := range el.nodes[:cap(el.nodes)] {
			if n.h != nil {
				t.Fatalf("reset list still holds a Handler in wheel node %d", i)
			}
		}
		ref := runSegment(t, NewEventList(), seg.rest)
		seg = runSegment(t, el, seg.rest)
		if !slices.Equal(seg.log, ref.log) {
			t.Fatalf("after a reset the list fired %v, a new list %v", seg.log, ref.log)
		}
		if seg.now != ref.now || seg.pending != ref.pending || seg.nextOrd != ref.nextOrd || seg.st != ref.st {
			t.Fatalf("after a reset the list ended at %v with %d pending, next ord %#x and %+v, a new list at %v with %d, %#x and %+v",
				seg.now, seg.pending, seg.nextOrd, seg.st, ref.now, ref.pending, ref.nextOrd, ref.st)
		}
		total.add(seg.st)
	}
	return total
}

// segment is what one stretch of a stream, up to a reset op or its end, did
// on one list.
type segment struct {
	st      streamStats
	log     []uint64 // the tags fired, in order
	now     Time     // the clock at the end
	pending int      // events pending at the end: 0 once drained
	nextOrd uint64   // the FIFO ord the next plain event would get
	reset   bool     // the stretch ended at a reset op
	rest    []byte   // the ops after it
}

// runSegment runs ops on el and a new reference model up to the first reset
// op, or to the end and then drains both.
//
// Timer entries the model does not have — superseded, stopped or carried
// forward — fire on the list's side as events nothing observes: a step of
// the model is a run of list steps up to the next one that logs, and a
// clock the list moved through such entries alone is the model's too. The
// harness accounts for every timer entry after every operation: each timer
// relies on exactly one entry while it has one, due no later than its arm,
// and every other entry is one a timer stopped relying on.
func runSegment(t *testing.T, el *EventList, ops []byte) segment {
	t.Helper()
	model := &refModel{}
	rec := &tagRecorder{}
	spawn := &spawner{el: el, rec: rec}
	spawnDelay := make(map[uint64]Time) // spawner tag -> its children's delay
	var modelLog []uint64
	var nextTag uint64
	var st streamStats

	var timers [schedTimers]Timer
	superseded := make(map[uint64]bool) // ords of entries no timer relies on any more
	expiry := make([]Handler, schedTimers)
	for k := range timers {
		tag := timerTag(k)
		expiry[k] = call(func() { rec.log = append(rec.log, tag) })
		timers[k].InitHandler(el, expiry[k])
	}

	// modelFire pops the model's earliest event and mirrors what its
	// handler does on the EventList side.
	modelFire := func() (uint64, bool) {
		tag, ok := model.pop()
		if !ok {
			return 0, false
		}
		modelLog = append(modelLog, tag)
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
	// syncClock accepts a list clock that unobserved timer entries moved
	// past the model's, as far as the model's next event.
	syncClock := func(what string) {
		if el.Now() < model.now || el.Now() > model.nextAt() {
			t.Fatalf("clock mismatch after %s: scheduler %v, model %v (next event %v)", what, el.Now(), model.now, model.nextAt())
		}
		model.now = el.Now()
	}
	step := func() {
		tag, ok := modelFire()
		n := len(rec.log)
		for len(rec.log) == n && el.Step() {
		}
		if fired := len(rec.log) > n; fired != ok {
			t.Fatalf("step mismatch: scheduler fired an observed event=%v, model had one=%v", fired, ok)
		}
		if !ok {
			syncClock("draining unobserved timer entries")
			return
		}
		if rec.log[n] != tag {
			t.Fatalf("step fired tag %d, model tag %d", rec.log[n], tag)
		}
		checkClock("a step")
	}

	for i := 0; i+1 < len(ops); i += 2 {
		op, off := ops[i], Time(ops[i+1])
		at := el.Now() + (off-16)*Nanosecond // occasionally in the past: clamp path
		k := int(op>>4) % schedTimers
		tm := &timers[k]
		switch op % 16 {
		case 0, 1: // typed handler event
			nextTag++
			el.Schedule(at, rec, nextTag)
			model.schedule(at, nextTag)
		case 2: // a second handler type, scheduled relative to now
			nextTag++
			tag := nextTag
			el.ScheduleAfter(at-el.Now(), call(func() { rec.log = append(rec.log, tag) }), 0)
			model.schedule(at, tag)
		case 3, 4: // arm a timer: near (3), or 0-25.5 us ahead like an RTO (4)
			if op%16 == 4 {
				at = el.Now() + off*100*Nanosecond
			}
			to, relied := max(at, el.Now()), tm.cOrd
			if at < el.Now() {
				st.Past++
			}
			if relied != 0 {
				if tm.ord == 0 {
					st.RearmStopped++
					for _, key := range timerKeys(el) {
						if key.ord == relied && key.at == to {
							st.RearmAtStale++
						}
					}
				} else if to < tm.at {
					st.Earlier++
				}
			}
			if op%16 == 3 {
				tm.ResetAt(at)
			} else {
				tm.Reset(at - el.Now())
			}
			model.arm(timerTag(k), at)
			if relied != 0 && tm.cOrd != relied {
				superseded[relied] = true
			}
		case 5: // stop a timer
			tm.Stop()
			model.cancel(timerTag(k))
		case 6: // re-initialise a timer, perhaps with an entry pending
			if tm.cOrd != 0 {
				st.InitPending++
				superseded[tm.cOrd] = true
			}
			tm.InitHandler(el, expiry[k])
			model.cancel(timerTag(k))
		case 7: // pop, or reset the list
			if op == resetOp {
				if el.bucketed+len(el.run) > 0 && len(el.keys) > 0 && len(timerKeys(el)) > 0 {
					st.ResetPending++
				}
				st.Queue = el.QueueStats()
				return segment{st: st, log: rec.log, now: el.Now(), pending: el.Len(), nextOrd: el.ReserveOrd(), reset: true, rest: ops[i+2:]}
			}
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
			next := el.NextAt()
			exact := el.Len() == len(model.events)
			for k := range timers {
				exact = exact && timers[k].cOrd == timers[k].ord
			}
			if want := model.nextAt(); next > want || exact && next != want {
				t.Fatalf("NextAt = %v, model says %v (no unobserved entries: %v)", next, want, exact)
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
			syncClock("RunBefore")
		case 15: // pop burst: back down through the sparse threshold
			for k := int(off) % 32; k > 0; k-- {
				step()
			}
		}
		keys, armed, accounted := timerKeys(el), 0, 0
		for _, key := range keys {
			if superseded[key.ord] {
				accounted++
			}
		}
		for k := range timers {
			tm := &timers[k]
			if tm.Pending() != model.pending(timerTag(k)) {
				t.Fatalf("timer %d Pending = %v after op %d, model disagrees", k, tm.Pending(), i)
			}
			if tm.Pending() {
				armed++
			}
			if tm.cOrd == 0 {
				if tm.Pending() {
					t.Fatalf("timer %d armed after op %d with no entry to rely on", k, i)
				}
				continue
			}
			for _, key := range keys {
				if key.ord == tm.cOrd {
					accounted++
					if key.at > tm.at {
						t.Fatalf("timer %d relies on an entry at %v, after its arm at %v", k, key.at, tm.at)
					}
				}
			}
		}
		if accounted != len(keys) {
			t.Fatalf("after op %d: %d timer entries, %d of them relied on or superseded", i, len(keys), accounted)
		}
		if got, want := el.Len()-len(keys), len(model.events)-armed; got != want {
			t.Fatalf("pending count mismatch after op %d: scheduler %d events besides timers', model %d", i, got, want)
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
	st.Queue = el.QueueStats()
	return segment{st: st, log: rec.log, now: el.Now(), nextOrd: el.ReserveOrd()}
}

// TestSchedulerVsReference drives long random op streams from fixed seeds —
// the always-on property test behind FuzzEventList — and checks that between
// them they reached both tiers, every admission clause and every timer edge.
func TestSchedulerVsReference(t *testing.T) {
	var total streamStats
	for seed := uint64(1); seed <= 50; seed++ {
		r := NewRand(seed)
		ops := make([]byte, 2000)
		for i := range ops {
			ops[i] = byte(r.Intn(256))
		}
		total.add(runSchedulerOps(t, ops))
	}
	q := total.Queue
	if q.WheelPops == 0 || q.HeapPops == 0 || q.MaxRun < 200 ||
		q.HeapBeyondSpan == 0 || q.HeapActiveBucket == 0 || q.HeapSparse == 0 {
		t.Errorf("random streams missed a tier or an admission clause: %+v", q)
	}
	if total.Earlier == 0 || total.RearmStopped == 0 || total.InitPending == 0 || total.Past == 0 {
		t.Errorf("random streams missed a timer edge: %+v", total)
	}
}

// Boundary streams, one per way an event can meet the wheel's edges. Each
// interleaves timer resets, stops and re-initialisations, is checked on its
// own by TestWheelBoundaryStreams and seeds FuzzEventList's corpus.

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
// from both tiers (ties pushed while their bucket is the active run take the
// heap), with a timer re-armed among them.
func keyedTies() []byte {
	ops := fill(20)
	for off := 0; off < 64; off++ {
		ops = append(ops, 9, byte(off), 9, byte(off^0x13), 3, 16+4)
	}
	ops = append(ops, 6, 3, 5, 1, 15, 31, 15, 31)
	for off := 0; off < 64; off++ {
		ops = append(ops, 9, byte(off^0x2a), 7, 0)
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
			ops = append(ops, 3, 40, 6, byte(i), 14, 2)
		}
	}
	return ops
}

// lockstep loads runs of 200+ ties, with a timer's entry in the middle of
// each — orphaned by a re-initialisation, so it fires as a no-op — and
// stragglers behind it.
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
		"keyed-ties":      func(s QueueStats) bool { return s.WheelPops > 100 && s.HeapActiveBucket >= 32 },
		"lap-jumps":       func(s QueueStats) bool { return s.Runs > 100 && s.WheelPops > 500 && s.HeapBeyondSpan > 0 },
		"handler-pushes":  func(s QueueStats) bool { return s.HeapActiveBucket > 100 && s.WheelPops > 100 },
		"lockstep":        func(s QueueStats) bool { return s.MaxRun >= 400 },
		"sparse-boundary": func(s QueueStats) bool { return s.HeapSparse > 30 && s.WheelPops > 30 },
	}
	for name, ops := range boundaryStreams() {
		if len(ops) > 4096 {
			t.Errorf("%s: %d bytes, over the fuzz target's 4096-byte cut", name, len(ops))
		}
		if s := runSchedulerOps(t, ops); !reached[name](s.Queue) {
			t.Errorf("%s did not reach the case it is named for: %+v", name, s.Queue)
		}
	}
}

// Timer streams, one per edge of a timer's lazily carried entry, each with
// the harness counter that proves the stream got there. The high nibble of
// an op byte picks the timer, so each stream spreads over all of them.
var timerStreams = []struct {
	name    string
	ops     []byte
	reached func(streamStats) bool
}{
	// An RTO horizon pulled in to a near time, over and over: each earlier
	// move leaves the superseded entry pending behind the new one, and the
	// later re-arm that follows keeps the new one and carries.
	{"earlier-move", timerOps(func(k byte, i int) []byte {
		ops := []byte{k | 4, byte(100 + i), k | 3, byte(40 + i), 7, 0, k | 4, byte(200 - i), 7, 0}
		if i%8 == 7 {
			ops = append(ops, 10, 25)
		}
		return ops
	}), func(s streamStats) bool { return s.Earlier >= 40 }},
	// A stopped timer re-armed while its entry is pending: before the entry
	// is due (a new entry; the old one fires as a no-op), and after it (the
	// old entry carries the arm forward).
	{"stop-then-rearm", timerOps(func(k byte, i int) []byte {
		return []byte{k | 4, 50, k | 5, 0, k | 3, byte(60 + i), 7, 0, k | 5, 0, k | 4, byte(60 + i), 14, byte(i)}
	}), func(s streamStats) bool { return s.RearmStopped >= 40 }},
	// Re-armed at exactly the stopped entry's time, around a plain event at
	// that instant: the old entry fires first and carries the arm to its own
	// key, behind the plain event.
	{"rearm-at-stale-time", timerOps(func(k byte, i int) []byte {
		off := byte(40 + i%60)
		return []byte{k | 3, off, 0, off, k | 5, 0, k | 3, off, 15, 3}
	}), func(s streamStats) bool { return s.RearmAtStale >= 30 }},
	// InitHandler while an entry is pending, armed and stopped, then a new
	// arm: the orphaned entries fire as no-ops among the new arms' entries.
	{"init-pending", timerOps(func(k byte, i int) []byte {
		return []byte{k | 3, byte(30 + i), k | 6, 0, k | 3, byte(30 + i), 7, 0, k | 4, 20, k | 5, 0, k | 6, 0, k | 4, 10, 7, 0}
	}), func(s streamStats) bool { return s.InitPending >= 60 }},
	// Resets before now, clamped to it, while the timer relies on an entry
	// due now (kept: it carries within the instant), later (an earlier move)
	// or stopped.
	{"past-reset", timerOps(func(k byte, i int) []byte {
		return []byte{k | 3, 16, k | 3, byte(i % 16), k | 4, 30, k | 3, 0, 7, 0, 14, 3, k | 5, 0, k | 3, 2}
	}), func(s streamStats) bool { return s.Past >= 100 && s.Earlier >= 20 }},
}

// timerOps is forty rounds of body over the timers in turn, after enough
// plain events to open the wheel.
func timerOps(body func(k byte, i int) []byte) []byte {
	ops := fill(20)
	for i := 0; i < 40; i++ {
		ops = append(ops, body(byte(i%schedTimers)<<4, i)...)
	}
	return ops
}

func TestTimerStreams(t *testing.T) {
	for _, c := range timerStreams {
		if len(c.ops) > 4096 {
			t.Errorf("%s: %d bytes, over the fuzz target's 4096-byte cut", c.name, len(c.ops))
		}
		if s := runSchedulerOps(t, c.ops); !c.reached(s) {
			t.Errorf("%s did not reach the case it is named for: %+v", c.name, s)
		}
	}
}

// resetWithPending resets the list, over and over, while events wait in
// the wheel (plain events near now, with more than the sparse threshold
// pending), in the heap (far events) and under timers (an RTO-like arm), and
// with a run loaded; after each reset the stream goes on from a clock at
// zero, as a new list would.
func resetWithPending() []byte {
	var ops []byte
	for i := 0; i < 12; i++ {
		ops = append(ops, fill(20)...)
		ops = append(ops, 8, byte(i*20), 3, byte(40+i), 0x14, 250, 7, 0, 12, byte(20+i), 7, 0, 0x25, 0, 7, 0)
		ops = append(ops, resetOp, 0)
	}
	return append(ops, fill(20)...)
}

func TestResetWithPending(t *testing.T) {
	ops := resetWithPending()
	if len(ops) > 4096 {
		t.Errorf("%d bytes, over the fuzz target's 4096-byte cut", len(ops))
	}
	if s := runSchedulerOps(t, ops); s.ResetPending < 12 || s.Queue.WheelPops == 0 || s.Queue.HeapBeyondSpan == 0 {
		t.Errorf("reset-with-pending did not reach the case it is named for: %+v", s)
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
	for _, c := range timerStreams {
		f.Add(c.ops)
	}
	f.Add(resetWithPending())
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runSchedulerOps(t, ops)
	})
}

// heapShapeOps is an op stream that builds a heap of exactly n events tied
// at one timestamp beyond the wheel's span, pushes one more ahead of them
// (a sift-up through every level), and drains it: n = 1…70 walks the sift
// kernel through every shape of last sibling group, one to four children,
// at one to four levels.
func heapShapeOps(n int) []byte {
	ops := make([]byte, 0, 4*n+4)
	for i := 0; i < n; i++ {
		ops = append(ops, 8, 250) // 41 us ahead: the heap
	}
	ops = append(ops, 8, 200)
	for i := 0; i <= n; i++ {
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

// TestTimerResetBoundedHeap: a timer re-armed later, however often, relies
// on one pending entry — an RTO-heavy sender once grew the heap by one
// entry per reset. Stop leaves that entry in place until its time, when it
// fires as a no-op; an arm after that schedules anew.
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
	tm.Stop()
	due := el.NextAt()
	if n := el.Len(); n != 1 || tm.Pending() || due != Millisecond {
		t.Fatalf("after Stop: %d pending, next at %v, armed %v; want the first arm's entry left at 1ms", n, due, tm.Pending())
	}
	el.RunUntil(due - 1)
	executed := el.Executed()
	el.RunUntil(due)
	if el.Len() != 0 || el.Executed() != executed+1 || fired != 0 {
		t.Fatalf("at its time: %d pending, %d events fired, timer fired %d times; want the entry fired once as a no-op",
			el.Len(), el.Executed()-executed, fired)
	}
	// And a final arm still works.
	tm.Reset(Microsecond)
	el.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times after final arm, want 1", fired)
	}
}
