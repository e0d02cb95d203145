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
	BytesSent         int64
	PacketsSent       int64
	BusyTime          sim.Time
}

func (p *eagerPort) State() EagerState {
	return EagerState{Busy: p.busy, StartedAt: p.startedAt, FreeAt: p.freeAt, Chained: p.chained,
		BytesSent: p.bytesSent, PacketsSent: p.packetsSent, BusyTime: p.busyTime}
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
		return fmt.Errorf("port %s is event-driven", p.Name)
	}
	if p.wake && !(p.armed && p.flight.Len() > 0) {
		return fmt.Errorf("port %s: wake with armed=%v and %d in flight", p.Name, p.armed, p.flight.Len())
	}
	if p.flight.Len() > 0 && !p.armed {
		return fmt.Errorf("port %s: %d in flight and no delivery armed", p.Name, p.flight.Len())
	}
	if p.SerEndEvents != 0 {
		return fmt.Errorf("port %s fired %d serialization-end events", p.Name, p.SerEndEvents)
	}
	return nil
}

// FuncEvent lets a test schedule a closure where the engine takes a
// sim.Handler (ScheduleKeyed, CrossBox.AddCommand); product code has no
// such adapter, its commands are values.
type FuncEvent func()

func (f FuncEvent) OnEvent(uint64) { f() }

// FreeCap is the capacity of the arena's free-list.
func (a *Arena) FreeCap() int { return cap(a.free) }
