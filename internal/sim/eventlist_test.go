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
	el.AtKeyed(2*Microsecond, reserved, note("reserved"))
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
	if tm.Expires() != Infinity {
		t.Errorf("stopped timer expires = %v, want Infinity", tm.Expires())
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
