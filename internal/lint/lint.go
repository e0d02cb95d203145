// Package lint checks the two determinism invariants of the simulation
// engine that no test can see break:
//
//   - virtual time is the only clock: no time.Now/Since/Sleep and no
//     math/rand import (WallClock);
//   - map iteration order never reaches event order, a slice's order or a
//     float sum, because engine code does not range over a map at all
//     (MapOrder) — NewSizeDist's map-order CDF sum moved only the last bits
//     of a distribution, where no golden looks.
//
// TestRepoClean runs both over every package of the module except the
// wall-clock set — cmd/…, examples/…, internal/simd and this package —
// which is not checked at all: there real time is the point, and nothing
// read reaches a simulation (TestDaemonEndToEnd pins the daemon's Metrics
// bit-identical to scenario.Run). There is no exemption syntax. Inside the
// engine a finding is fixed, and its message says how; an exemption would
// only be a second list of places to audit.
//
// Every other invariant is enforced where it breaks, not argued about its
// source: a sim.Rand cannot be copied (noCopy, go vet), a packet no arena
// owns panics in fabric.Free, a deferred command inside the pair lookahead
// panics in topo's Defer, a mailbox can only be scheduled by its own
// unexported handler, and state shared across shards is a report of the
// shard matrix under -race. docs/determinism.md "Where each property is
// enforced" has the table, and docs/determinism.md "Tried and lost" the
// seeded regressions.
//
// The checks and the loader use the standard library alone (go/ast,
// go/types, a from-source loader), so `go test ./internal/lint` needs no
// network and no module download.
package lint

import "go/token"

// Finding is one violation, positioned in the loader's fileset.
type Finding struct {
	Pos     token.Pos
	Message string
}
