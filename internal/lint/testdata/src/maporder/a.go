// Fixture for the maporder check: engine code never ranges over a map.
package maporder

import (
	"maps"
	"slices"
)

// Float accumulation in map order does not commute bit for bit.
func floatSum(m map[int64]float64) float64 {
	var total float64
	for _, p := range m { // want "range over a map: map order is randomized per run"
		total += p
	}
	return total
}

// Appending in map order builds a randomly ordered slice.
func collect(m map[string]int) []string {
	var out []string
	for k := range m { // want "range over a map"
		out = append(out, k)
	}
	return out
}

// Integer accumulation commutes exactly, and is flagged all the same: the
// rule is about the range, not about proving its body order-neutral.
func total(m map[int]int64) (n int64) {
	for _, v := range m { // want "slices.Sorted\(maps.Keys\(m\)\)"
		n += v
	}
	return n
}

// A named map type is still a map.
type perFlow map[uint64]int64

func sum(p perFlow) (n int64) {
	for _, v := range p { // want "range over a map"
		n += v
	}
	return n
}

// What the message says to write instead: the range is over a sorted slice.
func sortedKeys(m map[string]float64) (total float64) {
	for _, k := range slices.Sorted(maps.Keys(m)) {
		total += m[k]
	}
	return total
}

// Ranging over a slice is not a map range.
func overSlice(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}
