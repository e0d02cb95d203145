package sim

import "testing"

// This file twins shards_ref_test.go for the per-pair lookahead matrix:
// the same randomized actor workload, but cross-shard messages respect an
// asymmetric per-pair minimum latency L[i][j] instead of one scalar, and
// the sharded runner windows from SetLookaheadMatrix. It also carries the
// regression test for the windowLimits deadline-overflow bug.

// buildPairLookaheads derives a deterministic asymmetric per-pair
// cut-delay matrix from the seed and metric-closes it with Floyd-Warshall,
// mirroring what topo.finishShards does over the shard quotient graph.
// Entries range over 1..4 lookaheads, so pairs are genuinely asymmetric
// (L[i][j] != L[j][i]) and far pairs allow wider windows than the scalar.
func buildPairLookaheads(seed uint64, shards int) [][]Time {
	rng := NewRand(seed*0x9e3779b97f4a7c15 + 1)
	L := make([][]Time, shards)
	for i := range L {
		L[i] = make([]Time, shards)
		for j := range L[i] {
			if i != j {
				L[i][j] = Time(1+rng.Intn(4)) * refLookahead
			}
		}
	}
	for k := 0; k < shards; k++ {
		for i := 0; i < shards; i++ {
			if i == k {
				continue
			}
			for j := 0; j < shards; j++ {
				if j == i || j == k {
					continue
				}
				if via := L[i][k] + L[k][j]; via < L[i][j] {
					L[i][j] = via
				}
			}
		}
	}
	return L
}

// runMatrixSingle executes the matrix-latency workload on one shared list.
func runMatrixSingle(seed uint64, shards int, until Time, L [][]Time) *refWorld {
	el := NewEventList()
	w := buildRefWorld(seed, shards, []*EventList{el})
	w.lat = L
	w.send = func(src, dst *refActor, at Time, ord uint64, arg uint64) {
		el.ScheduleKeyed(at, ord, refMsg{dst}, arg)
	}
	seedStimuli(w)
	el.RunUntil(until)
	return w
}

// runMatrixSharded executes the same workload across shard lists under a
// MultiRunner windowed by the pair matrix.
func runMatrixSharded(seed uint64, shards int, until Time, serial bool, L [][]Time) *refWorld {
	lists := make([]*EventList, shards)
	for i := range lists {
		lists[i] = NewEventList()
	}
	w := buildRefWorld(seed, shards, lists)
	w.lat = L
	type boxEntry struct {
		at  Time
		ord uint64
		dst *refActor
		arg uint64
	}
	boxes := make([][]boxEntry, shards*shards)
	w.send = func(src, dst *refActor, at Time, ord uint64, arg uint64) {
		if src.shard == dst.shard {
			lists[dst.shard].ScheduleKeyed(at, ord, refMsg{dst}, arg)
			return
		}
		b := &boxes[src.shard*shards+dst.shard]
		*b = append(*b, boxEntry{at: at, ord: ord, dst: dst, arg: arg})
	}
	mr := NewMultiRunner(lists, refLookahead, func() {
		for i := range boxes {
			for _, e := range boxes[i] {
				lists[e.dst.shard].ScheduleKeyed(e.at, e.ord, refMsg{e.dst}, e.arg)
			}
			boxes[i] = boxes[i][:0]
		}
	})
	mr.SetLookaheadMatrix(L)
	mr.Parallel = !serial
	seedStimuli(w)
	mr.RunUntil(until)
	mr.Close()
	return w
}

// TestMultiRunnerMatrixVsSingleList drives many seeds through both engines
// under asymmetric per-pair lookaheads — the always-on property test
// behind FuzzMultiRunnerMatrix.
func TestMultiRunnerMatrixVsSingleList(t *testing.T) {
	const until = 200 * Microsecond
	for seed := uint64(1); seed <= 15; seed++ {
		for _, shards := range []int{2, 3, 5} {
			L := buildPairLookaheads(seed, shards)
			ref := runMatrixSingle(seed, shards, until, L)
			par := runMatrixSharded(seed, shards, until, false, L)
			compareRefWorlds(t, "matrix-parallel", ref, par)
			ser := runMatrixSharded(seed, shards, until, true, L)
			compareRefWorlds(t, "matrix-serial", ref, ser)
		}
	}
}

// FuzzMultiRunnerMatrix lets the fuzzer vary the seed and shard count:
// go test -fuzz=FuzzMultiRunnerMatrix ./internal/sim
func FuzzMultiRunnerMatrix(f *testing.F) {
	f.Add(uint64(1), uint8(2))
	f.Add(uint64(42), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8) {
		s := int(shards%7) + 2
		L := buildPairLookaheads(seed, s)
		ref := runMatrixSingle(seed, s, 100*Microsecond, L)
		got := runMatrixSharded(seed, s, 100*Microsecond, false, L)
		compareRefWorlds(t, "fuzz-matrix", ref, got)
	})
}

// countHandler counts firings; the minimal Handler for livelock probes.
type countHandler struct{ n int }

func (c *countHandler) OnEvent(uint64) { c.n++ }

// TestRunUntilInfinityDeadline is the regression test for the
// windowLimits horizon overflow: `bound := deadline + 1` wrapped negative
// for a deadline at Infinity, collapsing every horizon below the pending
// events and livelocking RunUntil. With SatAdd (and the Infinity guard in
// the drive loop) the run must terminate having fired everything.
func TestRunUntilInfinityDeadline(t *testing.T) {
	for _, deadline := range []Time{Infinity, Infinity - 1} {
		for _, matrix := range []bool{false, true} {
			lists := []*EventList{NewEventList(), NewEventList()}
			var c0, c1 countHandler
			lists[0].Schedule(10*Nanosecond, &c0, 0)
			lists[1].Schedule(20*Nanosecond, &c1, 0)
			mr := NewMultiRunner(lists, refLookahead, nil)
			if matrix {
				mr.SetLookaheadMatrix([][]Time{
					{0, refLookahead},
					{2 * refLookahead, 0},
				})
			}
			mr.Parallel = false
			mr.RunUntil(deadline)
			if c0.n != 1 || c1.n != 1 {
				t.Fatalf("deadline=%v matrix=%v: fired %d/%d events, want 1/1",
					deadline, matrix, c0.n, c1.n)
			}
			if got := mr.Now(); got != deadline {
				t.Fatalf("deadline=%v matrix=%v: Now() = %v", deadline, matrix, got)
			}
		}
	}
}
