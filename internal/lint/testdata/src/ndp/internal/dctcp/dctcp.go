// Package dctcp is the shardown fixture. It deliberately carries a real
// transport import path (ExtraSrc shadows the engine package), because the
// ownership map is keyed by package path: this package's Sender is
// source-owned and its Receiver destination-owned.
package dctcp

type Sender struct {
	cwnd int
	peer *Receiver
}

type Receiver struct {
	cumAck int64
	peer   *Sender
}

// attach runs on the sender's (source) shard: writing its own fields is
// same-domain and legal; writing the receiver's fields crosses the shard
// boundary.
func (s *Sender) attach(r *Receiver) {
	s.peer = r // same-domain write: no finding
	r.peer = s // want "cross-shard write: field peer of a destination-owned endpoint written from a source-owned method"
	r.cumAck++ // want "cross-shard write: field cumAck of a destination-owned endpoint written from a source-owned method"
}

// reset shows the reverse direction and the same-shard negative case.
func (r *Receiver) reset() {
	r.cumAck = 0    // same-domain write: no finding
	r.peer.cwnd = 0 // want "cross-shard write: field cwnd of a source-owned endpoint written from a destination-owned method"
}

// handoff builds a closure: its body runs on whatever shard the command
// channel delivers it to, so writes inside are exempt.
func (s *Sender) handoff(r *Receiver) func() {
	return func() {
		r.cumAck++ // closure body: no finding
	}
}
