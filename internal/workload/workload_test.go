package workload

import (
	"testing"
	"testing/quick"

	"ndp/internal/sim"
)

// Property: Permutation is a derangement — a bijection with no fixed point.
func TestPermutationProperty(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		p := Permutation(n, sim.NewRand(seed))
		seen := make([]bool, n)
		for i, d := range p {
			if d == i || d < 0 || d >= n || seen[d] {
				return false
			}
			seen[d] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomMatrixNoSelf(t *testing.T) {
	r := sim.NewRand(1)
	for trial := 0; trial < 50; trial++ {
		m := RandomMatrix(16, r)
		for i, d := range m {
			if d == i || d < 0 || d >= 16 {
				t.Fatalf("invalid destination %d for host %d", d, i)
			}
		}
	}
}

func TestIncastSenders(t *testing.T) {
	s := IncastSenders(5, 3, 16)
	want := []int{6, 7, 8}
	for i := range want {
		if s[i] != want[i] {
			t.Fatalf("senders = %v, want %v", s, want)
		}
	}
	// Wraps around and excludes the receiver.
	s = IncastSenders(14, 4, 16)
	for _, v := range s {
		if v == 14 {
			t.Fatal("receiver included as sender")
		}
	}
	// Capped at hosts-1.
	if got := IncastSenders(0, 100, 16); len(got) != 15 {
		t.Errorf("senders = %d, want capped at 15", len(got))
	}
}

func TestSizeDistSampling(t *testing.T) {
	d := NewSizeDist(map[int64]float64{100: 0.5, 1000: 0.5})
	r := sim.NewRand(7)
	counts := map[int64]int{}
	for i := 0; i < 10000; i++ {
		counts[d.Sample(r)]++
	}
	if len(counts) != 2 {
		t.Fatalf("sampled values: %v", counts)
	}
	if counts[100] < 4500 || counts[100] > 5500 {
		t.Errorf("100B sampled %d/10000, want ~5000", counts[100])
	}
}

func TestFacebookWebShape(t *testing.T) {
	d := FacebookWeb()
	r := sim.NewRand(3)
	small, large := 0, 0
	for i := 0; i < 10000; i++ {
		s := d.Sample(r)
		if s <= 2000 {
			small++
		}
		if s >= 200_000 {
			large++
		}
	}
	if small < 5500 {
		t.Errorf("small flows %d/10000; distribution should be dominated by small packets", small)
	}
	if large == 0 {
		t.Error("no large flows sampled; tail missing")
	}
	if m := d.Mean(); m < 5_000 || m > 50_000 {
		t.Errorf("mean flow size %v bytes implausible", m)
	}
}

// completion is a test flow's end, scheduled as a sim.Handler.
type completion func()

func (f completion) OnEvent(uint64) { f() }

func TestClosedLoopKeepsConnsRunning(t *testing.T) {
	el := sim.NewEventList()
	active := 0
	cl := &ClosedLoop{
		Hosts:         4,
		Conns:         2,
		Gap:           sim.Millisecond,
		Sizes:         NewSizeDist(map[int64]float64{1000: 1}),
		Seed:          11,
		NotifyLatency: func(int, int) sim.Time { return 500 * sim.Nanosecond },
		Defer:         func(from, to int, at sim.Time, h sim.Handler, arg uint64) { el.Schedule(at, h, arg) },
	}
	completions := 0
	cl.Start = func(_, src, dst int, size int64, done func(at sim.Time)) {
		if src == dst {
			t.Fatal("closed loop generated self-flow")
		}
		active++
		// Flows complete after 100us.
		el.ScheduleAfter(100*sim.Microsecond, completion(func() {
			active--
			completions++
			done(el.Now())
		}), 0)
	}
	cl.Run()
	el.RunUntil(20 * sim.Millisecond)
	if cl.Launched() < 20 {
		t.Errorf("launched %d flows in 20ms; closed loop not cycling", cl.Launched())
	}
	if completions < 16 {
		t.Errorf("completions = %d", completions)
	}
}
