package core

import (
	"testing"

	"ndp/internal/fabric"
)

// TestQueueRingWraparoundAndResize is the regression test for queueRing's
// power-of-two masking (the local mirror of fabric's ring): push/pop/
// popTail interleavings drive head and tail through wraparounds and across
// several growth boundaries, checked against a plain slice deque. The
// growth path must normalize capacity to a power of two — the masked
// indexing silently corrupts the queue otherwise.
func TestQueueRingWraparoundAndResize(t *testing.T) {
	var r queueRing
	var model []*fabric.Packet
	next := int64(0)
	mk := func() *fabric.Packet {
		next++
		return &fabric.Packet{Seq: next}
	}
	ops := []byte("pppppptpppptppppppptppppp")
	for round := 0; round < 50; round++ {
		for _, op := range ops {
			switch op {
			case 'p':
				p := mk()
				r.push(p, queueRingFloor)
				model = append(model, p)
			case 't':
				got := r.popTail()
				var want *fabric.Packet
				if len(model) > 0 {
					want = model[len(model)-1]
					model = model[:len(model)-1]
				}
				if got != want {
					t.Fatalf("popTail: got %v, want %v", got, want)
				}
			}
			if r.n != len(model) {
				t.Fatalf("length diverged: ring %d, model %d", r.n, len(model))
			}
		}
		for i := 0; i < len(ops)/2; i++ {
			got := r.pop()
			var want *fabric.Packet
			if len(model) > 0 {
				want = model[0]
				model = model[1:]
			}
			if got != want {
				t.Fatalf("pop: got %v, want %v", got, want)
			}
		}
		if len(r.buf)&(len(r.buf)-1) != 0 {
			t.Fatalf("queueRing capacity %d is not a power of two", len(r.buf))
		}
	}
	for r.n > 0 {
		got := r.pop()
		want := model[0]
		model = model[1:]
		if got != want {
			t.Fatalf("drain: got %v, want %v", got, want)
		}
	}
	if r.pop() != nil || r.popTail() != nil {
		t.Fatal("empty queueRing returned a packet")
	}
}
