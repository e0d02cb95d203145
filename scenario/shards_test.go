package scenario

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"ndp/internal/sim"
)

// TestShardDeterminism is the acceptance gate of the sharded engine: every
// registry scenario, run with the single-list engine (Shards=1) and with
// the conservative windowed multi-list engine at two different partition
// widths, must produce bit-identical Metrics AND identical engine event
// counts — serialization-end events apart, which only ports cut by a shard
// boundary fire (acrossShards). The guarantee is structural — equal-timestamp ordering comes
// from canonical (emitter, sequence) keys and every RNG stream is owned by
// exactly one shard-local component — so any divergence here is a bug, not
// noise. Run under -race in CI, this also proves shards share no state.
//
// The golden specs (NDP on FatTree, Workers=2, Repeats=2) keep their
// original gate; TestShardDeterminismMatrix below sweeps the full
// transport x topology support matrix.
func TestShardDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	for name, spec := range goldenSpecs(t) {
		name, spec := name, spec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			assertShardInvariant(t, spec)
		})
	}
}

// acrossShards is the part of the engine stats no shard layout changes.
// Four fields legitimately depend on the layout: ports cut by a shard
// boundary keep their serialization-end events while ports inside one shard
// serialize on demand (SerEndEvents, and Events with it, so the event count is
// compared without them); each shard has a scheduler of its own (Queue); and
// only a sharded run has windows (Windows). Everything else — deferred
// commands emitted, packet hops, leaked packets — is compared as it is.
func acrossShards(s RunStats) RunStats {
	s.Events -= s.SerEndEvents
	s.SerEndEvents = 0
	s.Queue, s.Windows = sim.QueueStats{}, sim.WindowStats{}
	return s
}

// assertShardInvariant runs spec at shards 1, 2 and 4 and requires
// bit-identical Metrics and engine stats (acrossShards), plus
// fully-released packet arenas at every shard count (PacketsInUse()==0
// after Close — the leak counter matters most for the lossless fabric,
// whose held packets migrate between ingress gates and cross-shard
// mailboxes).
func assertShardInvariant(t *testing.T, spec Spec) {
	t.Helper()
	var ref []byte
	var refStats RunStats
	for _, shards := range []int{1, 2, 4} {
		m, stats, err := RunWithStats(spec.With(WithShards(shards)))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if stats.PacketsLeaked != 0 {
			t.Errorf("shards=%d: %d arena packets still in use after Close", shards, stats.PacketsLeaked)
		}
		blob, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if shards == 1 {
			ref, refStats = blob, stats
			continue
		}
		if string(blob) != string(ref) {
			t.Errorf("metrics diverge between shards=1 and shards=%d:\n--- shards=1 ---\n%s\n--- shards=%d ---\n%s",
				shards, ref, shards, blob)
		}
		if !reflect.DeepEqual(acrossShards(stats), acrossShards(refStats)) {
			t.Errorf("engine stats diverge between shards=1 and shards=%d: %+v vs %+v",
				shards, refStats, stats)
		}
		if stats.SerEndEvents < refStats.SerEndEvents {
			t.Errorf("shards=%d fired %d serialization ends, fewer than the %d unsharded: cut ports must keep theirs",
				shards, stats.SerEndEvents, refStats.SerEndEvents)
		}
	}
}

// TestShardDeterminismMatrix sweeps the full supported matrix: every
// registry scenario x every shardable transport x every shardable
// topology, at shards 1/2/4, each combination bit-identical across shard
// counts. The topologies are sized to 16 hosts so the whole matrix stays
// CI-fast; the failure scenario runs on FatTree only (link failures are a
// FatTree feature, enforced by Validate). CI runs this under -race with
// GOMAXPROCS > 1, which additionally proves the shard goroutines share no
// state for any transport or topology.
func TestShardDeterminismMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	topologies := []struct {
		name string
		topo Topology
	}{
		{"fattree", FatTree(4)},           // 16 hosts, partitioned by pod
		{"twotier", TwoTier(4, 4, 4)},     // 16 hosts, partitioned by ToR group
		{"jellyfish", Jellyfish(8, 2, 3)}, // 16 hosts, BFS-grown parts
	}
	transports := []Transport{NDP, TCP, DCTCP, MPTCP, DCQCN, PHost}
	for name, spec := range matrixSpecs(t) {
		for _, tp := range topologies {
			if name == "failure" && tp.name != "fattree" {
				continue // Validate: link failures are FatTree-only
			}
			for _, tr := range transports {
				spec, tp, tr := spec, tp, tr
				t.Run(name+"/"+tp.name+"/"+string(tr), func(t *testing.T) {
					t.Parallel()
					assertShardInvariant(t, spec.With(
						WithTopology(tp.topo),
						WithTransport(tr),
					))
				})
			}
		}
	}
}

// matrixSpecs pins every registry scenario at matrix scale: one repeat,
// serial workers (shard parallelism is what is under test), small windows.
func matrixSpecs(t *testing.T) map[string]Spec {
	t.Helper()
	build := func(name string, p Params, opts ...Option) Spec {
		spec, err := Build(name, p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return spec.With(WithSeed(11), WithRepeats(1), WithWorkers(1))
	}
	return map[string]Spec{
		"incast": build("incast", Params{Hosts: 16, Degree: 8, FlowSize: 45_000},
			WithDeadline(100*time.Millisecond)),
		"permutation": build("permutation", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(2*time.Millisecond)),
		"random": build("random", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(2*time.Millisecond)),
		"rpc": build("rpc", Params{Hosts: 16, Degree: 2},
			WithDeadline(4*time.Millisecond)),
		"failure": build("failure", Params{Hosts: 16},
			WithWarmup(time.Millisecond), WithWindow(2*time.Millisecond)),
	}
}

// TestShardedValidation pins the guard rails: the supported matrix is
// every transport — dcqcn included, now that PFC pause crosses shard cuts
// as a keyed mailbox entry — on fattree/twotier/jellyfish, and misuse is
// a Validate error whose message names the supported matrix, rather than
// a wrong answer.
func TestShardedValidation(t *testing.T) {
	for _, tr := range Transports() {
		for _, tp := range []Topology{FatTree(4), TwoTier(4, 4, 4), Jellyfish(8, 2, 3)} {
			if err := New(WithShards(2), WithTransport(tr), WithTopology(tp)).Validate(); err != nil {
				t.Errorf("%s on %s with shards=2 should validate, got %v", tr, tp, err)
			}
		}
	}
	if err := New(WithShards(-1)).Validate(); err == nil {
		t.Error("negative shards validated")
	}

	const topoMsg = `scenario: sharded execution supports the fattree, twotier and jellyfish topologies, not "backtoback"`
	if err := New(WithShards(2), WithTopology(BackToBack())).Validate(); err == nil {
		t.Error("backtoback+shards validated; nothing to partition")
	} else if err.Error() != topoMsg {
		t.Errorf("backtoback+shards message drifted:\n got: %s\nwant: %s", err, topoMsg)
	}
}

// TestShardsHelpTextMatrix pins the user-facing descriptions of the
// supported matrix: the WithShards doc comment and the CLI -shards help
// text changed twice (when the NDP-on-FatTree-only restriction was
// lifted, and again when the dcqcn refusal was), and this guards against
// the docs regressing to either old claim.
func TestShardsHelpTextMatrix(t *testing.T) {
	for _, tr := range Transports() {
		spec := New(WithShards(4), WithTransport(tr))
		if err := spec.Validate(); err != nil {
			t.Errorf("supported transport %s rejected: %v", tr, err)
		}
	}
	// The topology error string is the machine-checkable face of the
	// matrix; make sure it enumerates every supported member (a partial
	// list would mislead exactly the users who hit the error).
	err := New(WithShards(2), WithTopology(BackToBack())).Validate()
	for _, want := range []string{"fattree", "twotier", "jellyfish"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("topology message does not name supported topology %q: %s", want, err)
		}
	}
}

// TestShardsClampToPods checks that an oversized shard count degrades to
// the partition-unit count instead of failing: a k=4 tree has at most 4
// shards, and the result is still identical.
func TestShardsClampToPods(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real simulations")
	}
	spec := New(
		WithTopology(FatTree(4)),
		WithWorkload(Incast(4, 90_000)),
		WithSeed(5),
		WithDeadline(50*time.Millisecond),
	)
	a, err := Run(spec.With(WithShards(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec.With(WithShards(64)))
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Errorf("metrics diverge between shards=1 and clamped shards=64:\n%s\n%s", aj, bj)
	}
}
