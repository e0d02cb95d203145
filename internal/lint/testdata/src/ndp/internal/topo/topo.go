// Package topo is a fixture stub: the minimal Cluster surface of the real
// ndp/internal/topo that the keyedcut analyzer keys on.
package topo

import "ndp/internal/sim"

type Cluster interface {
	EventList() *sim.EventList
	Defer(from, to int, at sim.Time, h sim.Handler, arg uint64)
	MinPathDelay(src, dst int) sim.Time
	LinkDelay() sim.Time
}

type Network struct{ el sim.EventList }

func (n *Network) EventList() *sim.EventList { return &n.el }
func (n *Network) Defer(from, to int, at sim.Time, h sim.Handler, arg uint64) {
}
func (n *Network) MinPathDelay(src, dst int) sim.Time { return 1 }
func (n *Network) LinkDelay() sim.Time                { return 1 }
