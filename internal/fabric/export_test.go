package fabric

import (
	"fmt"

	"ndp/internal/sim"
)

// What port_ondemand_test.go needs of the package's internals. That file is
// an external test (package fabric_test) because it drives core.SwitchQueue,
// and core imports fabric.

// EagerPort is the reference transmitter of port_elide_test.go.
type EagerPort = eagerPort

// NewEagerPort builds the reference transmitter for one egress link.
func NewEagerPort(el *sim.EventList, q Queue, rateBps int64, delay sim.Time, uid uint32, peer Sink) *EagerPort {
	return &eagerPort{q: q, rateBps: rateBps, delay: delay, uid: uid, el: el, peer: peer}
}

// EagerState is the reference's transmit-side state at one instant.
type EagerState struct {
	Busy              bool
	StartedAt, FreeAt sim.Time
	Chained           bool // the packet on the wire was started by a serialization end
	PacketsSent       int64
}

func (p *eagerPort) State() EagerState {
	return EagerState{Busy: p.busy, StartedAt: p.startedAt, FreeAt: p.freeAt, Chained: p.chained,
		PacketsSent: p.packetsSent}
}

// OnDemand reports the port's mode.
func (p *Port) OnDemand() bool { return p.onDemand }

// StartOwed reports whether a packet waits for the serialization end.
func (p *Port) StartOwed() bool { return p.wake }

// CheckOnDemand returns an error if the port, between events, breaks what
// an on-demand port relies on: while a start is owed (wake) a delivery event
// is armed to carry it, and the packet still serializing is in the flight.
func (p *Port) CheckOnDemand() error {
	if !p.onDemand {
		return fmt.Errorf("port %s is event-driven", p)
	}
	if p.wake && !(p.armed && p.flight.Len() > 0) {
		return fmt.Errorf("port %s: wake with armed=%v and %d in flight", p, p.armed, p.flight.Len())
	}
	if p.flight.Len() > 0 && !p.armed {
		return fmt.Errorf("port %s: %d in flight and no delivery armed", p, p.flight.Len())
	}
	if p.SerEndEvents != 0 {
		return fmt.Errorf("port %s fired %d serialization-end events", p, p.SerEndEvents)
	}
	return nil
}

// FuncEvent lets a test schedule a closure where the engine takes a
// sim.Handler (Schedule, ScheduleKeyed, CrossBox.AddCommand); product code
// has no such adapter, its events and commands are values.
type FuncEvent func()

func (f FuncEvent) OnEvent(uint64) { f() }

// FreeLen is how many packets the arena's free-list holds.
func (a *Arena) FreeLen() int { return len(a.free) }

// Chunks is how many chunks of packets the arena holds.
func (a *Arena) Chunks() int { return len(a.chunks) }

// ArenaChunk is how many packets one chunk holds.
const ArenaChunk = arenaChunk

// CtrlFirst is the first buffer of a NIC's control band.
const CtrlFirst = ctrlFirst

// CtrlCap is the capacity of the control band's ring.
func (q *CtrlPrioQueue) CtrlCap() int { return q.ctrl.Cap() }
