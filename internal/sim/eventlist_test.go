package sim

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventListOrdering(t *testing.T) {
	el := NewEventList()
	var got []Time
	times := []Time{50, 10, 30, 10, 20, 40, 10}
	for _, at := range times {
		at := at
		el.At(at, func() { got = append(got, at) })
	}
	el.Run()
	want := append([]Time(nil), times...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d fired at %v, want %v (order %v)", i, got[i], want[i], got)
		}
	}
	if el.Now() != 50 {
		t.Errorf("clock = %v, want 50", el.Now())
	}
}

func TestEventListFIFOTieBreak(t *testing.T) {
	el := NewEventList()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		el.At(7*Microsecond, func() { order = append(order, i) })
	}
	el.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order at %d: got %d", i, v)
		}
	}
}

// Property: for any set of (bounded) timestamps, Run executes every event
// exactly once, in non-decreasing time order, and Now() never goes backwards.
func TestEventListOrderingProperty(t *testing.T) {
	prop := func(offsets []uint16) bool {
		el := NewEventList()
		var fired []Time
		for _, o := range offsets {
			at := Time(o) * Nanosecond
			el.At(at, func() { fired = append(fired, el.Now()) })
		}
		el.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEventListPastClamps(t *testing.T) {
	el := NewEventList()
	var at Time = -1
	el.At(10*Microsecond, func() {
		// Scheduling in the past must clamp to now, not fire before now.
		el.At(5*Microsecond, func() { at = el.Now() })
	})
	el.Run()
	if at != 10*Microsecond {
		t.Errorf("past event fired at %v, want clamp to 10us", at)
	}
}

func TestRunUntil(t *testing.T) {
	el := NewEventList()
	fired := 0
	for _, at := range []Time{Microsecond, 2 * Microsecond, 3 * Microsecond} {
		el.At(at, func() { fired++ })
	}
	el.RunUntil(2 * Microsecond)
	if fired != 2 {
		t.Errorf("fired %d events by 2us, want 2", fired)
	}
	if el.Now() != 2*Microsecond {
		t.Errorf("clock = %v, want 2us", el.Now())
	}
	if el.Len() != 1 {
		t.Errorf("pending = %d, want 1", el.Len())
	}
	el.RunUntil(Millisecond)
	if fired != 3 {
		t.Errorf("fired %d events total, want 3", fired)
	}
}

// TestReserveOrdAndFired: a reserved ord sits in the FIFO order exactly
// where a Schedule call would have put the event, whether or not the event
// is ever scheduled, and Fired answers for it as if it always were.
func TestReserveOrdAndFired(t *testing.T) {
	el := NewEventList()
	var order []string
	var reserved uint64
	fired := func() bool { return el.Fired(2*Microsecond, reserved) }
	note := func(name string) func() {
		return func() { order = append(order, name, fmt.Sprint(fired())) }
	}
	el.At(2*Microsecond, note("before"))
	el.At(Microsecond, func() {
		reserved = el.ReserveOrd()
		el.At(2*Microsecond, note("after"))
	})
	el.RunUntil(Microsecond)
	if fired() {
		t.Fatal("a key later than now counts as fired")
	}
	el.ScheduleKeyed(2*Microsecond, reserved, funcEvent(note("reserved")), 0)
	el.RunUntil(2 * Microsecond)
	if got, want := fmt.Sprint(order), "[before false reserved true after true]"; got != want {
		t.Errorf("order = %v, want %v", got, want)
	}
	if !fired() {
		t.Error("outside the event loop a key at now must count as fired")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	el := NewEventList()
	var seq []int
	el.At(Microsecond, func() {
		seq = append(seq, 1)
		el.After(Microsecond, func() { seq = append(seq, 3) })
		el.After(Nanosecond, func() { seq = append(seq, 2) })
	})
	el.Run()
	if len(seq) != 3 || seq[0] != 1 || seq[1] != 2 || seq[2] != 3 {
		t.Fatalf("nested scheduling order = %v, want [1 2 3]", seq)
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	el := NewEventList()
	fired := 0
	tm := NewTimer(el, func() { fired++ })
	tm.Reset(10 * Microsecond)
	el.At(5*Microsecond, func() { tm.Reset(20 * Microsecond) })
	el.Run()
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if el.Now() != 25*Microsecond {
		t.Errorf("timer fired at %v, want 25us (reset from t=5us)", el.Now())
	}
}

func TestTimerStop(t *testing.T) {
	el := NewEventList()
	fired := false
	tm := NewTimer(el, func() { fired = true })
	tm.Reset(10 * Microsecond)
	if !tm.Pending() {
		t.Fatal("timer should be pending after Reset")
	}
	el.At(Microsecond, func() { tm.Stop() })
	el.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	if tm.Pending() {
		t.Error("stopped timer still pending")
	}
}

func TestTimerRestartAfterFire(t *testing.T) {
	el := NewEventList()
	fired := 0
	var tm *Timer
	tm = NewTimer(el, func() {
		fired++
		if fired < 3 {
			tm.Reset(Microsecond)
		}
	})
	tm.Reset(Microsecond)
	el.Run()
	if fired != 3 {
		t.Fatalf("periodic-style timer fired %d times, want 3", fired)
	}
}

func TestNextAt(t *testing.T) {
	el := NewEventList()
	if el.NextAt() != Infinity {
		t.Errorf("empty NextAt = %v, want Infinity", el.NextAt())
	}
	el.At(42*Nanosecond, func() {})
	if el.NextAt() != 42*Nanosecond {
		t.Errorf("NextAt = %v, want 42ns", el.NextAt())
	}
}

// TestWheelRunLoadedPastWindowLimit: a shard's window ends (RunBefore) with
// the wheel's run already loaded from a bucket beyond the limit; the next
// window's mailbox drain then delivers events that are earlier than the run,
// inside its bucket, and tied with its entries under a lower ord. All of
// them must fire in key order, ahead of the run entries they precede.
func TestWheelRunLoadedPastWindowLimit(t *testing.T) {
	el := NewEventList()
	rec := &tagRecorder{}
	const late = 10 * Microsecond
	for i := 0; i < wheelMinPending; i++ { // sparse: these take the heap
		el.Schedule(late+Time(i)*Nanosecond, rec, 100+uint64(i))
	}
	for i := 0; i < 8; i++ { // and these the wheel, one bucket
		el.Schedule(late, rec, 200+uint64(i))
	}
	el.RunBefore(5 * Microsecond)
	if s := el.QueueStats(); s.Runs != 1 || len(el.run) != 8 || el.Now() != 0 || len(rec.log) != 0 {
		t.Fatalf("window before the run's bucket: runs=%d loaded=%d now=%v fired=%d, want 1, 8, 0, 0",
			s.Runs, len(el.run), el.Now(), len(rec.log))
	}
	el.ScheduleKeyed(7*Microsecond, DeliveryOrd(2, 1), rec, 1)
	el.ScheduleKeyed(6*Microsecond, DeliveryOrd(1, 1), rec, 0)
	el.ScheduleKeyed(late, DeliveryOrd(1, 2), rec, 2) // tied with the run, lower ord class
	el.ScheduleKeyed(late, PFCOrd(1, 1), rec, 300)    // tied with the run, highest ord class
	el.Schedule(late-Nanosecond, rec, 3)              // the run's bucket, before its entries
	el.Schedule(late+20*Nanosecond, rec, 400)         // a later bucket: the wheel again
	if s := el.QueueStats(); s.HeapActiveBucket != 5 {
		t.Fatalf("pushes at or before the loaded run's bucket sent to the heap: %d, want 5", s.HeapActiveBucket)
	}
	el.RunBefore(20 * Microsecond)
	want := []uint64{0, 1, 3, 2, 100, 200, 201, 202, 203, 204, 205, 206, 207, 300}
	for i := 1; i < wheelMinPending; i++ {
		want = append(want, 100+uint64(i))
	}
	want = append(want, 400)
	if fmt.Sprint(rec.log) != fmt.Sprint(want) {
		t.Errorf("fired %v\nwant  %v", rec.log, want)
	}
}

// TestWheelDoesNotPinHandlers: the node slab is recycled, never shrunk, so
// a popped node must drop its Handler — at every point the slab holds
// exactly as many Handlers as events wait in the wheel.
func TestWheelDoesNotPinHandlers(t *testing.T) {
	el := NewEventList()
	held := func() (n int) {
		for i := range el.nodes {
			if el.nodes[i].h != nil {
				n++
			}
		}
		return n
	}
	for i := 0; i < 300; i++ {
		el.Schedule(Time(i%40)*10*Nanosecond, &nopHandler{}, 1)
	}
	if held() == 0 {
		t.Fatal("no event reached the wheel")
	}
	for el.Len() > 0 {
		if got, want := held(), el.bucketed+len(el.run); got != want {
			t.Fatalf("slab holds %d Handlers with %d events in the wheel", got, want)
		}
		el.Step()
	}
	if n := held(); n != 0 {
		t.Errorf("drained list still holds %d Handlers", n)
	}
}

// TestWheelSpanBoundary: the last picosecond of the last bucket of the
// window is admitted, the first of the bucket after it — whose index would
// alias now's own bucket — is not, wherever in its bucket now sits; and the
// order across the boundary holds either way.
func TestWheelSpanBoundary(t *testing.T) {
	const width, span = Time(1) << wheelShift, Time(wheelBuckets) << wheelShift
	for _, now := range []Time{0, 5 * Nanosecond, width - 1, 3*span + 7*Nanosecond, 5*span - 1} {
		el := NewEventList()
		rec := &tagRecorder{}
		el.AdvanceTo(now)
		for i := 0; i < wheelMinPending; i++ {
			el.Schedule(now+Time(i), rec, uint64(i)) // now's bucket, sparse: the heap
		}
		edge := (now>>wheelShift + wheelBuckets) << wheelShift // first instant beyond the window
		el.Schedule(edge, rec, 102)
		el.Schedule(edge-1, rec, 101)
		el.Schedule(now+width, rec, 100)
		if s := el.QueueStats(); s.HeapBeyondSpan != 1 || el.bucketed != 2 {
			t.Fatalf("now=%v: beyond-span pushes %d, bucketed %d, want 1 and 2", now, s.HeapBeyondSpan, el.bucketed)
		}
		el.Run()
		if got := rec.log[wheelMinPending:]; fmt.Sprint(got) != "[100 101 102]" {
			t.Errorf("now=%v: order across the span boundary %v, want [100 101 102]", now, got)
		}
	}
}
