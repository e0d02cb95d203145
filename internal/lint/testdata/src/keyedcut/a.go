// Fixture for the keyedcut analyzer: cross-shard deliveries are
// canonically keyed and Defer delays derive from the topology.
package keyedcut

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/topo"
)

// cmd is a deferred command: a handler over state its emitter owns.
type cmd struct{}

func (*cmd) OnEvent(arg uint64) {}

func literalDefer(c topo.Cluster, h *cmd) {
	c.Defer(0, 1, 500, h, 0) // want "compile-time constant"
}

func literalConstDefer(n *topo.Network, h *cmd) {
	const at = sim.Time(250)
	n.Defer(0, 1, at, h, 1) // want "compile-time constant"
}

// Delays computed from the topology's minimum path delay are the contract.
func derivedDefer(c topo.Cluster, h *cmd) {
	c.Defer(0, 1, c.EventList().Now()+c.MinPathDelay(0, 1), h, 0)
}

func linkDefer(c topo.Cluster, h *cmd) {
	c.Defer(0, 1, c.EventList().Now()+3*c.LinkDelay(), h, 0)
}

// A Defer of another shape is somebody else's method.
type closureDeferrer struct{}

func (closureDeferrer) Defer(from, to int, at sim.Time, fn func()) {}

func otherDefer(d closureDeferrer) {
	d.Defer(0, 1, 500, func() {})
}

func plainMailbox(el *sim.EventList, ib *fabric.Inbox, bx *fabric.CrossBox) {
	el.Schedule(10, ib, 0)           // want "plain Schedule"
	el.ScheduleAfter(1, bx, 0)       // want "plain ScheduleAfter"
	el.ScheduleCancelable(10, ib, 0) // want "plain ScheduleCancelable"
}

// Keyed scheduling with a canonical ord is the sanctioned path.
func keyedMailbox(el *sim.EventList, ib *fabric.Inbox) {
	el.ScheduleKeyed(10, sim.DeliveryOrd(1, 2), ib, 0)
}

// Ordinary component handlers may use plain scheduling freely.
type pump struct{}

func (p *pump) OnEvent(arg uint64) {}

func plainComponent(el *sim.EventList, p *pump) {
	el.Schedule(10, p, 0)
}

func allowedDefer(c topo.Cluster, h *cmd) {
	c.Defer(0, 1, 500, h, 0) //simlint:allow keyedcut — fixture: bootstrap command before the clock starts
}
