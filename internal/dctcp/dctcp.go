// Package dctcp configures the DCTCP baseline (Alizadeh et al., SIGCOMM
// 2010) the paper compares against: TCP NewReno with sharp-threshold ECN
// marking at switches and a once-per-window fractional cut driven by the
// EWMA of the marked fraction. The congestion-control machinery itself
// lives in internal/tcp (Config.DCTCP); this package pins the paper's
// recommended parameters — 200-packet switch buffers with a 30-packet
// marking threshold — and provides the switch queue factory.
package dctcp

import (
	"ndp/internal/fabric"
	"ndp/internal/sim"
	"ndp/internal/tcp"
)

// MarkThresholdPackets is the paper's recommended DCTCP marking threshold.
const MarkThresholdPackets = 30

// BufferPackets is the switch buffer the paper grants DCTCP (vs NDP's 8).
const BufferPackets = 200

// QueueFactory returns ECN-marking switch queues with the paper's DCTCP
// sizing for the given MTU.
func QueueFactory(mtu int) func(seeds []uint64) []fabric.Queue {
	return fabric.ECNQueues(BufferPackets*mtu, MarkThresholdPackets*mtu)
}

// SenderConfig returns the DCTCP endpoint configuration: ECN-driven control
// with gain 1/16 and a datacenter-tuned MinRTO.
func SenderConfig(mtu int) tcp.Config {
	return tcp.Config{
		MSS:         mtu,
		InitialCwnd: 10,
		MaxCwnd:     1000,
		MinRTO:      10 * sim.Millisecond,
		Handshake:   true,
		DCTCP:       true,
		G:           1.0 / 16,
	}
}

// NewSender builds a DCTCP sender over a fixed path.
func NewSender(host *fabric.Host, dst int32, flow uint64, path []int16, size int64, mtu int) *tcp.Sender {
	cfg := SenderConfig(mtu)
	return tcp.NewSender(host, dst, flow, path, tcp.NewFixedSource(size, mtu), cfg)
}

// NewReceiver builds the matching receiver; DCTCP receivers are plain TCP
// receivers with per-packet ECN echo, which internal/tcp always does.
func NewReceiver(host *fabric.Host, peer int32, flow uint64, revPath []int16) *tcp.Receiver {
	return tcp.NewReceiver(host, peer, flow, revPath)
}
