package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random number generator
// (xoshiro256**). Every simulation owns its own Rand seeded from the
// experiment configuration so runs are exactly reproducible; nothing in this
// module touches math/rand global state.
//
// A Rand must not be copied once seeded: both copies would replay the same
// stream, correlating decisions that must be independent. Hold it by pointer,
// or embed it and Init it in place; noCopy makes `go vet` (copylocks) report a
// by-value copy at its line.
type Rand struct {
	_ noCopy // first, so that it adds no padding
	s [4]uint64
}

// noCopy is the sync package's marker: vet's copylocks pass treats a type
// with pointer-receiver Lock and Unlock methods as one that must not be
// copied. It has no size and nothing calls the methods.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewRand returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed internal state even for small seeds.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Init(seed)
	return r
}

// Init seeds a generator in place: the allocation-free NewRand, for a Rand
// embedded by value in a larger struct or slice.
func (r *Rand) Init(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n)) // modulo bias is negligible for n << 2^64
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability 1/2.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Duration returns a uniform Time in [0, d).
func (r *Rand) Duration(d Time) Time {
	if d <= 0 {
		return 0
	}
	return Time(r.Int63n(int64(d)))
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	Shuffle(r, p)
	return p
}

// Shuffle permutes p in place (Fisher–Yates) with r's Intn draws: the same
// draws, and so the same order, for a slice of any element type. It is a
// function because a method cannot take a type parameter.
func Shuffle[T any](r *Rand, p []T) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// SplitSeed draws a fresh well-mixed seed from the generator's stream.
// Successive calls yield independent seeds, so a parent Rand can hand each
// of N children its own deterministic seed: the i-th child's seed depends
// only on the parent's seed and i, never on who consumes the child first.
// This is how the experiment harness derives per-job RNGs for parallel
// sweeps without sharing generator state across goroutines.
func (r *Rand) SplitSeed() uint64 { return r.Uint64() }

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *Rand) ExpFloat64() float64 {
	// Inverse transform sampling; guard against log(0).
	u := r.Float64()
	if u <= 0 {
		u = 1.0 / (1 << 53)
	}
	return -math.Log(1 - u)
}
