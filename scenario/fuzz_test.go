package scenario

import (
	"testing"
	"time"
)

// fuzzBytes hands out a fuzz input one byte at a time, zeros once it runs
// out, so every input decodes to some Spec.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzSpec decodes a fuzz input into a small Spec: one of the six
// transports on a FatTree k=4, a TwoTier, a Jellyfish or a 2-ary FatTree
// oversubscribed up to 20 hosts; an incast, a permutation (sized or
// unbounded), a random or an rpc workload; MTU 1500 or 9000; an optional
// link failure; windows and deadlines of a few milliseconds. Some inputs
// decode to a Spec that Validate rejects (a failure off a FatTree or out of
// its range, a Jellyfish of odd degree sum, an incast wider than the hosts).
func fuzzSpec(in []byte) Spec {
	b := fuzzBytes(in)
	tr := Transports()[b.next()%6]
	var tp Topology
	switch b.next() % 4 {
	case 0:
		tp = FatTree(4)
	case 1:
		tp = TwoTier(2+b.next()%3, 2+b.next()%4, 1+b.next()%4)
	case 2:
		tp = Jellyfish(4+b.next()%7, 1+b.next()%2, 2+b.next()%2)
	default:
		tp = OversubFatTree(2, 2+b.next()%9)
	}
	var w Workload
	size := int64(1+b.next()%64) * 1500
	switch b.next() % 5 {
	case 0:
		w = Incast(1+b.next()%16, size)
	case 1:
		w = PermutationSized(size)
	case 2:
		w = Permutation()
	case 3:
		w = Random()
	default:
		w = RPC(1 + b.next()%3)
	}
	mtu := 9000
	if b.next()%2 == 1 {
		mtu = 1500
	}
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spec := New(WithTopology(tp), WithTransport(tr), WithWorkload(w), WithMTU(mtu),
		WithSeed(uint64(b.next())), WithRepeats(1), WithWorkers(1),
		WithWarmup(ms(b.next()%2)), WithWindow(ms(1+b.next()%2)), WithDeadline(ms(1+b.next()%4)))
	if f := b.next(); f%4 == 3 {
		spec = spec.With(WithLinkFailure(f/4%8, b.next()%2, 1_000_000_000))
	}
	return spec
}

// FuzzSpec runs small Specs of every transport, topology and workload at
// 1, 2 and 4 shards: each must run without error (a panic the run
// recovers is one), leak no packet, and give the same Metrics and
// acrossShards stats at every shard count (assertShardInvariant). A Spec
// that Validate rejects must be rejected as cleanly by Run.
func FuzzSpec(f *testing.F) {
	if testing.Short() {
		f.Skip("runs real simulations")
	}
	// Bytes: transport, topology (and its dimensions), flow size, workload
	// (and its degree), MTU, seed, warmup, window, deadline, failure.
	f.Add([]byte{0, 0, 0, 4, 1, 0, 3, 0, 1, 3})          // ndp rpc on fattree(k=4)
	f.Add([]byte{5, 0, 29, 0, 7, 0, 5, 0, 0, 3})         // phost 8-into-1 incast
	f.Add([]byte{4, 1, 1, 2, 1, 0, 4, 2, 1, 0, 1, 2, 1}) // dcqcn rpc on twotier: the sender's release
	f.Add([]byte{1, 2, 1, 0, 1, 0, 2, 0, 0, 0, 1, 1})    // tcp permutation on an odd-degree-sum jellyfish: rejected
	f.Fuzz(func(t *testing.T, in []byte) {
		spec := fuzzSpec(in)
		if err := spec.Validate(); err != nil {
			if _, _, runErr := RunWithStats(spec); runErr == nil {
				t.Fatalf("Validate rejects %+v (%v), Run accepts it", spec, err)
			}
			return
		}
		assertShardInvariant(t, spec)
	})
}
