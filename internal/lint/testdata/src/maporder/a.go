// Fixture for the maporder check: map iteration must be provably
// order-neutral in engine code.
package maporder

import (
	"maps"
	"slices"

	"ndp/internal/sim"
)

type sched struct{ el *sim.EventList }

// Scheduling an event per map entry leaks map order into event order.
func (s *sched) schedules(m map[int]uint64, h sim.Handler) {
	for k, v := range m { // want "map iteration calls Schedule inside the loop"
		s.el.Schedule(sim.Time(k), h, v)
	}
}

// Float accumulation in map order does not commute bit for bit.
func floatSum(m map[int64]float64) float64 {
	var total float64
	for _, p := range m { // want "accumulates floating point in map order"
		total += p
	}
	return total
}

// Appending in map order builds a randomly ordered slice.
func collect(m map[string]int) []string {
	var out []string
	for k := range m { // want "final value depends on visit order"
		out = append(out, k)
	}
	return out
}

// Writing a map under a key other than the range key resolves collisions in
// visit order.
func invert(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m { // want "key other than the range key"
		out[v] = k
	}
	return out
}

// Per-key map writes touch a distinct slot each iteration: order-neutral.
func snapshot(m map[uint64]int64) map[uint64]int64 {
	out := make(map[uint64]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Integer accumulation commutes exactly: order-neutral.
func total(m map[int]int64) (n int64) {
	for _, v := range m {
		n += v
	}
	return n
}

// Max tracking is order-neutral in fact but not provably so to the check
// (a plain variable write inside the loop): conservative flag, resolved by
// ranging over sorted keys.
func maxVal(m map[int]int) int {
	best := 0
	for _, v := range m { // want "slices.Sorted\(maps.Keys\(m\)\)"
		if v > best {
			best = v
		}
	}
	return best
}

// What the message says to write instead: the range is over a sorted slice.
func sortedKeys(m map[string]float64) (total float64) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		total += m[k]
	}
	return total
}
