// Package sim is a fixture stub: the minimal surface of the real
// ndp/internal/sim that the maporder fixture schedules through, under the
// real import path.
package sim

type Time int64

type Handler interface{ OnEvent(arg uint64) }

type EventList struct{ now Time }

func (el *EventList) Schedule(t Time, h Handler, arg uint64) {}
