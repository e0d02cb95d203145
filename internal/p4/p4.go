// Package p4 reproduces the paper's P4 switch implementation (§4, Figure
// 7): the NDP service model expressed as a match-action pipeline for a
// programmable switch with two queues between ingress and egress.
//
// The paper's point is that NDP needs nothing exotic from a switch: a
// register holding the normal-queue occupancy, three ingress tables
// (Readregister, Setprio, Directprio), a truncate primitive, and one egress
// table (Decrement) for book-keeping. This package implements a tiny
// match-action interpreter and the NDP program on top of it, and the tests
// verify the pipeline is semantically equivalent to the behavioural model
// in internal/core for the decisions both make (trim vs enqueue vs
// priority).
//
// Like the paper's Figure 7, the pipeline models a single output interface;
// internal/core.SwitchQueue remains the multi-port behavioural model used
// in simulation (it adds the tail-trim coin and return-to-sender, which the
// paper notes a "full implementation should" add to the P4 version).
package p4

import (
	"fmt"

	"ndp/internal/fabric"
)

// Metadata carried with a packet through the pipeline.
type Metadata struct {
	// Prio is the egress queue selector: 0 = normal, 1 = priority.
	Prio int
	// QS is the normal-queue occupancy snapshot read from the register.
	QS int
	// Truncated records that the truncate primitive ran.
	Truncated bool
	// Dropped records that no queue could accept the packet.
	Dropped bool
}

// Action mutates a packet and its metadata; primitives compose into table
// actions.
type Action func(sw *Pipeline, p *fabric.Packet, md *Metadata)

// Table is one match-action stage. Match inspects the packet and metadata
// and selects an action (nil = no-op / miss).
type Table struct {
	Name  string
	Match func(sw *Pipeline, p *fabric.Packet, md *Metadata) Action
	// Hits counts matched packets, for the tests and for parity with P4
	// counters.
	Hits int64
}

// Apply runs the table on a packet.
func (t *Table) Apply(sw *Pipeline, p *fabric.Packet, md *Metadata) {
	if a := t.Match(sw, p, md); a != nil {
		t.Hits++
		a(sw, p, md)
	}
}

// Pipeline is the Figure 7 device: an ingress pipeline, two queues, and an
// egress pipeline around a single output interface.
type Pipeline struct {
	// qs is the register tracking normal-queue bytes ("not all P4
	// platforms have a queue-size register, so we count packets that go
	// into the normal buffer and packets that enter the egress pipeline").
	qs int

	// BufferBytes is the normal-queue budget (12KB in the NetFPGA/P4
	// design).
	BufferBytes int
	// PrioCapBytes bounds the priority queue; overflow drops.
	PrioCapBytes int

	Ingress []*Table
	Egress  []*Table

	Normal, Priority []*fabric.Packet
	prioBytes        int

	Drops, Truncs int64
}

// NewPipeline builds the NDP P4 program with the paper's 12KB buffer.
func NewPipeline() *Pipeline {
	sw := &Pipeline{BufferBytes: 12 << 10, PrioCapBytes: 12 << 10}
	sw.Ingress = []*Table{
		{
			// Readregister: copy the qs register into metadata so later
			// tables (which can only match on packet data + metadata) can
			// use it.
			Name: "Readregister",
			Match: func(sw *Pipeline, p *fabric.Packet, md *Metadata) Action {
				return func(sw *Pipeline, p *fabric.Packet, md *Metadata) { md.QS = sw.qs }
			},
		},
		{
			// Directprio: NDP packets without a data payload (ACK, NACK,
			// PULL, already-trimmed headers) go straight to the priority
			// queue.
			Name: "Directprio",
			Match: func(sw *Pipeline, p *fabric.Packet, md *Metadata) Action {
				if !p.IsControl() {
					return nil
				}
				return func(sw *Pipeline, p *fabric.Packet, md *Metadata) { md.Prio = 1 }
			},
		},
		{
			// Setprio: data packets fit in the normal queue while qs is
			// under the buffer size; beyond it they are truncated and fed
			// to the priority queue.
			Name: "Setprio",
			Match: func(sw *Pipeline, p *fabric.Packet, md *Metadata) Action {
				if p.IsControl() {
					return nil
				}
				if md.QS+int(p.Size) <= sw.BufferBytes {
					return func(sw *Pipeline, p *fabric.Packet, md *Metadata) {
						md.Prio = 0
						sw.qs += int(p.Size) // qs += pkt.size
					}
				}
				return func(sw *Pipeline, p *fabric.Packet, md *Metadata) {
					md.Prio = 1
					truncate(sw, p, md) // P4 primitive action
				}
			},
		},
	}
	sw.Egress = []*Table{
		{
			// Decrement: qs book-keeping — decrease when a packet that came
			// from the normal queue enters the egress pipeline.
			Name: "Decrement",
			Match: func(sw *Pipeline, p *fabric.Packet, md *Metadata) Action {
				if md.Prio != 0 {
					return nil
				}
				return func(sw *Pipeline, p *fabric.Packet, md *Metadata) { sw.qs -= int(p.Size) }
			},
		},
	}
	return sw
}

// truncate is the P4 primitive: cut the payload, mark the NDP header flag.
func truncate(sw *Pipeline, p *fabric.Packet, md *Metadata) {
	p.Trim()
	md.Truncated = true
	sw.Truncs++
}

// Submit runs a packet through the ingress pipeline and enqueues it.
func (sw *Pipeline) Submit(p *fabric.Packet) Metadata {
	var md Metadata
	for _, t := range sw.Ingress {
		t.Apply(sw, p, &md)
	}
	if md.Prio == 1 {
		if sw.prioBytes+int(p.Size) > sw.PrioCapBytes {
			md.Dropped = true
			sw.Drops++
			fabric.Free(p)
			return md
		}
		sw.prioBytes += int(p.Size)
		sw.Priority = append(sw.Priority, p)
		return md
	}
	sw.Normal = append(sw.Normal, p)
	return md
}

// Transmit dequeues the next packet (priority queue first, matching the
// paper's two-queue assumption) and runs the egress pipeline. The queues are
// plain slices popped with [1:], as in Figure 7's reference pipeline: this
// model is read beside the figure and runs a few hundred packets, so it stays
// the obvious code and does not use fabric.Ring.
func (sw *Pipeline) Transmit() (*fabric.Packet, Metadata) {
	var p *fabric.Packet
	var md Metadata
	switch {
	case len(sw.Priority) > 0:
		p = sw.Priority[0]
		sw.Priority = sw.Priority[1:]
		sw.prioBytes -= int(p.Size)
		md.Prio = 1
	case len(sw.Normal) > 0:
		p = sw.Normal[0]
		sw.Normal = sw.Normal[1:]
		md.Prio = 0
	default:
		return nil, md
	}
	for _, t := range sw.Egress {
		t.Apply(sw, p, &md)
	}
	return p, md
}

// QS exposes the register value for tests.
func (sw *Pipeline) QS() int { return sw.qs }

// String summarizes pipeline state.
func (sw *Pipeline) String() string {
	return fmt.Sprintf("p4: qs=%d normal=%d prio=%d truncs=%d drops=%d",
		sw.qs, len(sw.Normal), len(sw.Priority), sw.Truncs, sw.Drops)
}
