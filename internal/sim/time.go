// Package sim provides the discrete-event simulation engine that underpins
// the NDP reproduction: a picosecond-resolution virtual clock, a two-tier
// event list with allocation-free typed events (a timing wheel for the
// uncancellable near-future events a packet simulation is made of, in front
// of an indexed 4-ary heap for timers and everything far or sparse), a
// deterministic pseudo-random number generator, and a conservative parallel
// runner.
//
// Each event list is strictly single-threaded: datacenter packet
// simulations are dominated by tiny events (a packet finishing
// serialization, a timer firing) whose ordering must be exactly
// reproducible for experiments to be comparable. A simulation either
// shares one EventList on one goroutine, or is partitioned into shards —
// one list and one goroutine each — advanced in lockstep lookahead
// windows by MultiRunner; canonical equal-timestamp event keys make the
// two modes bit-identical.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in simulated time, measured in integer picoseconds from
// the start of the simulation. Integer picoseconds are exact for every
// quantity this simulator cares about (a 64-byte frame at 400Gb/s is 1280ps)
// while still spanning over 100 simulated days in an int64.
type Time int64

// Duration constants expressed in simulated picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond       = 1000 * Picosecond
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Infinity is a time later than any event a simulation will schedule.
const Infinity = Time(1<<63 - 1)

// SatAdd adds a latency to a timestamp, or two latencies, saturating at
// Infinity instead of overflowing (an idle shard's next event is at
// Infinity).
func SatAdd(t, d Time) Time {
	if t >= Infinity-d {
		return Infinity
	}
	return t + d
}

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Std converts t to a time.Duration (nanosecond resolution, rounding down).
func (t Time) Std() time.Duration { return time.Duration(t / Nanosecond) }

// String formats t with an adaptive unit, e.g. "12.3us" or "4.56ms".
func (t Time) String() string {
	switch {
	case t == Infinity:
		return "inf"
	case t < 0:
		return "-" + (-t).String()
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.3gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%.4gus", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.4gms", t.Millis())
	default:
		return fmt.Sprintf("%.4gs", t.Seconds())
	}
}

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// TransmissionTime returns how long size bytes take to serialize onto a link
// of the given rate in bits per second. It rounds up so that back-to-back
// packets never overlap.
func TransmissionTime(sizeBytes int, rateBps int64) Time {
	if rateBps <= 0 {
		return 0
	}
	bits := int64(sizeBytes) * 8
	// bits * Second may overflow only for absurd sizes (>10^6 TB); the
	// workloads here top out at jumbograms.
	return Time((bits*int64(Second) + rateBps - 1) / rateBps)
}
