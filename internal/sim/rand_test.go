package sim

import (
	"testing"
	"testing/quick"
)

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("different seeds produced %d identical draws out of 1000", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 10000; i++ {
		v := r.Intn(8)
		if v < 0 || v >= 8 {
			t.Fatalf("Intn(8) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Errorf("Intn(8) only produced %d distinct values in 10k draws", len(seen))
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// Property: Perm always returns a permutation of [0, n).
func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := NewRand(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(99)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRand(5)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Errorf("ExpFloat64 mean = %v, want ~1.0", mean)
	}
}

func TestDuration(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 1000; i++ {
		d := r.Duration(Millisecond)
		if d < 0 || d >= Millisecond {
			t.Fatalf("Duration out of range: %v", d)
		}
	}
	if r.Duration(0) != 0 {
		t.Error("Duration(0) should be 0")
	}
}

func TestShuffleCoverage(t *testing.T) {
	// A shuffle of [0,1,2] should reach all 6 permutations over many trials.
	r := NewRand(11)
	perms := make(map[[3]int]int)
	for i := 0; i < 6000; i++ {
		p := [3]int{0, 1, 2}
		Shuffle(r, p[:])
		perms[p]++
	}
	if len(perms) != 6 {
		t.Fatalf("shuffle reached %d/6 permutations", len(perms))
	}
	for p, c := range perms {
		if c < 700 {
			t.Errorf("permutation %v seen only %d/6000 times", p, c)
		}
	}
}
