package main

import (
	"fmt"
	"time"

	"ndp"
	"ndp/scenario"
)

// workloadDef is one named benchmark workload. Every workload is a closed
// loop driven by one generator goroutine: the next iteration starts when the
// previous one has returned and been checked. The seed is the only
// randomness and flows into Spec.Seed / Options.Seed.
type workloadDef struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json
	// repeats it; README.md gives the long form).
	Why string
	// MinIters is the floor a time-boxed run never goes below.
	MinIters int
}

var workloads = []workloadDef{
	{"perm-ndp", "steady-state per-packet path at figure scale: 128 unbounded NDP flows keep every port busy for 3.7M events; flow setup is under 0.1% of the run", 15},
	{"perm-ndp-shards2", "the same simulated work through the 2-shard windowed runner: the only workload with barrier and mailbox-exchange cost on its path; bypass for single-list changes", 15},
	{"rpc-churn", "64k one-packet closed-loop flows on a 4:1 oversubscribed FatTree: flow setup/teardown, deferred commands, pools and 64k-sample metrics aggregation dominate (25 events per flow)", 15},
	{"figures", "all 22 paper experiments at Scale 0.1, as ndpsim -exp all runs them: six transports, four topologies, many small build-run-teardown simulations; bypass for NDP-only changes", 3},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizes are the input sizes of the workloads. The defaults are the stated
// benchmark sizes; main_test.go shrinks them so every code path runs in a
// few seconds.
type sizes struct {
	PermHosts   int
	RPCHosts    int
	RPCDeadline time.Duration
	// IncastHosts/IncastDegree size the transport-table Spec, which is also
	// the Spec the figures workload replays under trace.
	IncastHosts  int
	IncastDegree int
	// Experiments is the list one figures pass runs.
	Experiments []string
}

func defaultSizes() sizes {
	return sizes{PermHosts: 128, RPCHosts: 128, RPCDeadline: 60 * time.Millisecond,
		IncastHosts: 64, IncastDegree: 32, Experiments: ndp.Experiments()}
}

// figuresScale is the Scale every experiment of the figures workload runs at.
const figuresScale = 0.1

// specFor builds the Spec a Spec workload iterates (and traces). figures has
// no Spec of its own: its iterations are experiment passes, and its traced
// replay uses the transport-table incast, the simulation shape most of the
// 22 experiments are made of.
func specFor(workload string, sz sizes, seed uint64) (scenario.Spec, error) {
	common := []scenario.Option{scenario.WithSeed(seed), scenario.WithWorkers(1), scenario.WithRepeats(1)}
	switch workload {
	case "perm-ndp", "perm-ndp-shards2":
		spec, err := scenario.Build("permutation", scenario.Params{Hosts: sz.PermHosts},
			scenario.WithWarmup(time.Millisecond), scenario.WithWindow(5*time.Millisecond))
		if err != nil {
			return scenario.Spec{}, err
		}
		if workload == "perm-ndp-shards2" {
			spec = spec.With(scenario.WithShards(2))
		}
		return spec.With(common...), nil
	case "rpc-churn":
		spec, err := scenario.Build("rpc", scenario.Params{Hosts: sz.RPCHosts, Degree: 5, FlowSize: 1500},
			scenario.WithDeadline(sz.RPCDeadline))
		if err != nil {
			return scenario.Spec{}, err
		}
		return spec.With(common...), nil
	case "figures":
		return incastSpec(sz, scenario.NDP, seed)
	}
	return scenario.Spec{}, fmt.Errorf("unknown workload %q", workload)
}

// incastSpec is the fixed Spec of the transport table: one incast per
// transport, the same for all six.
func incastSpec(sz sizes, t scenario.Transport, seed uint64) (scenario.Spec, error) {
	return scenario.Build("incast", scenario.Params{Hosts: sz.IncastHosts, Degree: sz.IncastDegree, FlowSize: 135_000},
		scenario.WithTransport(t), scenario.WithSeed(seed), scenario.WithWorkers(1), scenario.WithRepeats(1))
}
