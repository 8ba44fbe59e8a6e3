package simnet

import "phasetune/internal/des"

// Fast is the frozen-rate network approximation: each transfer gets the
// fair-share rate implied by the instantaneous flow counts on its path at
// start time and keeps it until completion. It is O(1) per transfer and is
// used for the large sweeps of Figures 5, 6 and 8, where the exact fluid
// model would dominate runtime. Contention trends (NIC serialization,
// backbone saturation as more nodes communicate) are preserved.
type Fast struct {
	eng     *des.Engine
	topo    Topology
	upCnt   []int
	downCnt []int
	bbCnt   int
	// flights holds the transfers in progress, indexed by the slot their
	// completion event carries; free lists the reusable slots.
	flights []flight
	free    []int
}

// flight is one transfer in progress on the Fast network.
type flight struct {
	src, dst int
	done     des.Handler
	arg      int
}

// NewFast builds a frozen-rate network over n nodes.
func NewFast(eng *des.Engine, n int, topo Topology) *Fast {
	return &Fast{
		eng:     eng,
		topo:    topo,
		upCnt:   make([]int, n),
		downCnt: make([]int, n),
	}
}

// Transfer implements Network.
func (f *Fast) Transfer(src, dst int, bytes float64, done des.Handler, arg int) {
	if src == dst {
		f.eng.PostAfter(localCopyLatency, done, arg)
		return
	}
	f.upCnt[src]++
	f.downCnt[dst]++
	f.bbCnt++
	rate := f.topo.NICBandwidth / float64(f.upCnt[src])
	if r := f.topo.NICBandwidth / float64(f.downCnt[dst]); r < rate {
		rate = r
	}
	if f.topo.BackboneBandwidth > 0 {
		if r := f.topo.BackboneBandwidth / float64(f.bbCnt); r < rate {
			rate = r
		}
	}
	dur := f.topo.Latency + bytes/rate
	var slot int
	if n := len(f.free); n > 0 {
		slot = f.free[n-1]
		f.free = f.free[:n-1]
	} else {
		slot = len(f.flights)
		f.flights = append(f.flights, flight{})
	}
	f.flights[slot] = flight{src: src, dst: dst, done: done, arg: arg}
	f.eng.PostAfter(dur, (*fastArrival)(f), slot)
}

// fastArrival is the Fast network as the handler of its own transfer
// completions.
type fastArrival Fast

// Fire releases the path of the transfer in slot and fires its
// completion.
func (a *fastArrival) Fire(slot int) {
	f := (*Fast)(a)
	fl := f.flights[slot]
	f.flights[slot] = flight{}
	f.free = append(f.free, slot)
	f.upCnt[fl.src]--
	f.downCnt[fl.dst]--
	f.bbCnt--
	fl.done.Fire(fl.arg)
}
