package model

import "offload/internal/sim"

// InterRegionLink prices the backbone between two regions of the
// edge–cloud continuum. When a task is re-homed — its chosen region died
// and a surviving one takes over — the input state must cross this link
// before execution can start, which costs both time (one RTT of
// coordination plus the serialized transfer) and money (egress).
//
// The link is deliberately coarser than internal/network's device paths:
// backbone links between regions are provisioned, symmetric and
// contention-free at the traffic volumes one device generates, so a
// fixed RTT + bandwidth pair captures them.
type InterRegionLink struct {
	// RTT is the round-trip coordination delay paid once per re-homing.
	RTT sim.Duration
	// BandwidthBps is the backbone throughput in bits per second (the same
	// unit as network.Config), shared by the state transfer.
	BandwidthBps float64
	// EgressUSDPerGB is the cloud egress price charged for moving the
	// task's input bytes out of the failed region (or from the device's
	// home point of presence) into the surviving one.
	EgressUSDPerGB float64
}

// DefaultInterRegionLink models a metro-to-cloud backbone hop: 60 ms RTT,
// 1 Gbit/s of usable throughput, and a typical cloud egress price.
func DefaultInterRegionLink() InterRegionLink {
	return InterRegionLink{
		RTT:            0.060,
		BandwidthBps:   1e9,
		EgressUSDPerGB: 0.02,
	}
}

// TransferTime returns how long re-homing bytes of task state takes over
// the link: one RTT of coordination plus the serialized transfer.
func (l InterRegionLink) TransferTime(bytes int64) sim.Duration {
	if bytes < 0 {
		bytes = 0
	}
	return l.RTT + sim.Duration(float64(bytes)*8/l.BandwidthBps)
}

// TransferCostUSD returns the egress charge for re-homing bytes of task
// state across the link.
func (l InterRegionLink) TransferCostUSD(bytes int64) float64 {
	if bytes < 0 {
		bytes = 0
	}
	return float64(bytes) / float64(GB) * l.EgressUSDPerGB
}
