// Package simnet provides the network models under the task runtime —
// the role SimGrid's fluid network model plays for StarPU-SimGrid.
//
// Two interchangeable models are provided:
//
//   - Fluid: exact flow-level max-min fair sharing with event-driven rate
//     recomputation (progressive filling). Used by tests and small
//     simulations; it is the reference model.
//   - Fast: a frozen-rate approximation that assigns each transfer its
//     fair-share rate at start time and never revises it. O(1) per
//     transfer; used for the large parameter sweeps of Figures 5 and 6.
//
// Both models route every inter-node transfer through the source NIC, a
// shared backbone, and the destination NIC, matching the paper's platform
// descriptions (per-node Ethernet/InfiniBand NICs behind a site backbone).
package simnet

import "phasetune/internal/des"

// Topology describes a site network.
type Topology struct {
	// NICBandwidth is each node's full-duplex NIC bandwidth in bytes/s.
	NICBandwidth float64
	// BackboneBandwidth is the aggregate backbone capacity in bytes/s.
	// Zero or negative means an uncontended backbone.
	BackboneBandwidth float64
	// Latency is the per-transfer latency in seconds.
	Latency float64
}

// Network is the transfer interface used by the task runtime.
type Network interface {
	// Transfer moves bytes from node src to node dst, firing done with
	// arg at completion (in simulated time). Transfers with src == dst
	// complete after only the local copy latency.
	Transfer(src, dst int, bytes float64, done des.Handler, arg int)
}

// localCopyLatency approximates an intra-node data copy: effectively free
// relative to network transfers.
const localCopyLatency = 1e-7
