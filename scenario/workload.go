package scenario

import (
	"fmt"
	"time"
)

// Workload describes the traffic a scenario drives. Use the constructors;
// the Kind strings also name the workload in Metrics and the CLI.
type Workload struct {
	Kind string `json:"kind"`

	// Degree is the incast fan-in, or the RPC connections per host.
	Degree int `json:"degree,omitempty"`
	// FlowSize is the per-flow transfer size in bytes; < 0 runs
	// unbounded flows measured by goodput over Warmup/Window. For RPC a
	// zero FlowSize samples the Facebook web-server size distribution.
	FlowSize int64 `json:"flow_size,omitempty"`
	// Receiver is the incast sink host (default 0).
	Receiver int `json:"receiver,omitempty"`
	// Gap is the RPC closed-loop median inter-flow gap (default 1ms).
	Gap time.Duration `json:"gap,omitempty"`
	// PrioritizeLast asks the receiver to pull the last incast flow
	// strictly first — the straggler-prioritization demo of §5 (NDP
	// honours it; other transports have no receiver priority and ignore
	// it). Its FCT is the last entry of Metrics.FCTsUs.
	PrioritizeLast bool `json:"prioritize_last,omitempty"`
}

// Incast fans degree flows of size bytes into one receiver at t=0 — the
// paper's hardest traffic pattern. Metrics report the FCT distribution and
// last-flow completion.
func Incast(degree int, size int64) Workload {
	return Workload{Kind: "incast", Degree: degree, FlowSize: size}
}

// IncastPrioritized is Incast with the final flow marked as a straggler
// the receiver pulls with strict priority (§5, "Benefits of
// prioritization").
func IncastPrioritized(degree int, size int64) Workload {
	w := Incast(degree, size)
	w.PrioritizeLast = true
	return w
}

// Permutation runs the paper's worst-case full-load matrix: every host
// sends to exactly one host and receives from exactly one. Flows are
// unbounded; Metrics report per-flow goodput over the measurement window.
func Permutation() Workload { return Workload{Kind: "permutation", FlowSize: -1} }

// PermutationSized is Permutation with size-bounded flows, measured by
// completion time instead of goodput.
func PermutationSized(size int64) Workload {
	return Workload{Kind: "permutation", FlowSize: size}
}

// Random sends one unbounded flow per host to a uniformly random other
// host (receivers may be shared), measured by goodput.
func Random() Workload { return Workload{Kind: "random", FlowSize: -1} }

// RPC runs a closed loop: every host keeps connsPerHost request flows in
// flight to random destinations, drawing sizes from the Facebook
// web-server distribution, restarting after a ~1ms think gap. Metrics
// report the FCT distribution.
func RPC(connsPerHost int) Workload {
	return Workload{Kind: "rpc", Degree: connsPerHost}
}

// String renders the workload compactly ("incast(100x135000B)").
func (w Workload) String() string {
	switch w.Kind {
	case "incast":
		if w.PrioritizeLast {
			return fmt.Sprintf("incast(%dx%dB,prio-last)", w.Degree, w.FlowSize)
		}
		return fmt.Sprintf("incast(%dx%dB)", w.Degree, w.FlowSize)
	case "permutation", "random":
		if w.FlowSize < 0 {
			return w.Kind
		}
		return fmt.Sprintf("%s(%dB)", w.Kind, w.FlowSize)
	case "rpc":
		return fmt.Sprintf("rpc(conns=%d)", w.Degree)
	}
	return "invalid"
}

func (w Workload) validate(hosts int) error {
	switch w.Kind {
	case "incast":
		if w.Degree < 1 {
			return fmt.Errorf("scenario: incast degree must be >= 1, got %d", w.Degree)
		}
		if w.Degree > hosts-1 {
			return fmt.Errorf("scenario: incast degree %d exceeds the %d available senders (%d hosts)",
				w.Degree, hosts-1, hosts)
		}
		if w.FlowSize <= 0 {
			return fmt.Errorf("scenario: incast flow size must be positive, got %d", w.FlowSize)
		}
		if w.Receiver < 0 || w.Receiver >= hosts {
			return fmt.Errorf("scenario: incast receiver %d out of range [0,%d)", w.Receiver, hosts)
		}
	case "permutation", "random":
		if hosts < 2 {
			return fmt.Errorf("scenario: %s needs at least 2 hosts", w.Kind)
		}
		if w.FlowSize == 0 {
			return fmt.Errorf("scenario: %s flow size must be nonzero (-1 = unbounded)", w.Kind)
		}
	case "rpc":
		if w.Degree < 1 {
			return fmt.Errorf("scenario: rpc conns per host must be >= 1, got %d", w.Degree)
		}
		if hosts < 2 {
			return fmt.Errorf("scenario: rpc needs at least 2 hosts")
		}
		if w.Gap < 0 {
			return fmt.Errorf("scenario: rpc gap must be >= 0 (0 = 1ms), got %v", w.Gap)
		}
	case "":
		return fmt.Errorf("scenario: no workload set")
	default:
		return fmt.Errorf("scenario: unknown workload kind %q", w.Kind)
	}
	return nil
}

// unbounded reports whether the workload is goodput-measured (no flow
// completion).
func (w Workload) unbounded() bool {
	return (w.Kind == "permutation" || w.Kind == "random") && w.FlowSize < 0
}
