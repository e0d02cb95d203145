// Package callgraph exercises the graph construction itself: CHA interface
// dispatch, static edges, closure nodes, and panic-path suppression. The
// callgraph unit tests assert over this package's nodes and edges directly
// rather than through want comments.
package callgraph

import "fmt"

type Sink interface{ Handle(x int) }

type A struct{ n int }

type B struct{ buf []int }

func (a *A) Handle(x int) { a.n += x }

func (b *B) Handle(x int) { b.buf = append(b.buf, x) }

// Dispatch calls through the interface: CHA must edge to both A.Handle and
// B.Handle.
func Dispatch(s Sink) { s.Handle(1) }

// Chain is a static two-hop path to Dispatch.
func Chain(s Sink) { Dispatch(s) }

// MakeClosure captures y: a closure node, an EdgeClosure, and a
// closure-capture allocation site.
func MakeClosure(y int) func() int {
	return func() int { return y + 1 }
}

// PanicPath boxes its argument only inside a panic call: the site must be
// summarized as PanicOnly so hotalloc skips it.
func PanicPath(x int) {
	if x < 0 {
		panic(fmt.Sprintf("bad %d", x))
	}
}

// Table is a generic type: a call on an instantiation must edge to the
// generic declaration's body.
type Table[V any] struct{ slots []V }

func (t *Table[V]) Put(v V) { t.slots = append(t.slots, v) }

// First is a generic function, resolved the same way.
func First[V any](vs []V) V { return vs[0] }

// UseGeneric calls a method of Table[int] and an instantiated function.
func UseGeneric(t *Table[int]) int {
	t.Put(1)
	return First(t.slots)
}
