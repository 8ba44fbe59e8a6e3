package simnet

import (
	"math"

	"phasetune/internal/des"
)

// link is a capacity-constrained resource in the fluid model.
type link struct {
	capacity float64
	flows    []*flow // in start order
	// progressive-filling scratch, reset by every recompute
	residual float64
	active   int
}

// flow is an in-progress transfer in the fluid model.
type flow struct {
	remaining float64
	rate      float64
	updated   float64 // sim time of the last remaining/rate update
	path      []*link
	done      des.Handler
	arg       int
	ev        des.Timer
	frozen    bool // rate fixed by the current progressive filling
}

// Fluid is the exact max-min fair network model. Rates are recomputed by
// progressive filling whenever a flow starts or finishes, and completion
// events are rescheduled accordingly. Flows and links are walked in a
// fixed order (flows by start, links by node), so a run is deterministic
// down to the last bit.
type Fluid struct {
	eng   *des.Engine
	topo  Topology
	up    []*link
	down  []*link
	bb    *link
	links []*link // up, down, then the backbone
	flows []*flow // in start order
}

// NewFluid builds a fluid network over n nodes.
func NewFluid(eng *des.Engine, n int, topo Topology) *Fluid {
	f := &Fluid{eng: eng, topo: topo}
	f.up = make([]*link, n)
	f.down = make([]*link, n)
	for i := 0; i < n; i++ {
		f.up[i] = &link{capacity: topo.NICBandwidth}
		f.down[i] = &link{capacity: topo.NICBandwidth}
	}
	f.links = append(append(f.links, f.up...), f.down...)
	if topo.BackboneBandwidth > 0 {
		f.bb = &link{capacity: topo.BackboneBandwidth}
		f.links = append(f.links, f.bb)
	}
	return f
}

// Transfer implements Network.
func (f *Fluid) Transfer(src, dst int, bytes float64, done des.Handler, arg int) {
	if src == dst {
		f.eng.PostAfter(localCopyLatency, done, arg)
		return
	}
	// The latency segment precedes the fluid segment.
	f.eng.After(f.topo.Latency, func() {
		path := []*link{f.up[src], f.down[dst]}
		if f.bb != nil {
			path = append(path, f.bb)
		}
		fl := &flow{remaining: bytes, updated: f.eng.Now(), path: path, done: done, arg: arg}
		f.flows = append(f.flows, fl)
		for _, l := range path {
			l.flows = append(l.flows, fl)
		}
		f.recompute()
	})
}

// ActiveFlows returns the number of in-progress fluid flows (excludes
// transfers still in their latency segment).
func (f *Fluid) ActiveFlows() int { return len(f.flows) }

// finish removes the flow and fires its completion callback.
func (f *Fluid) finish(fl *flow) {
	f.flows = without(f.flows, fl)
	for _, l := range fl.path {
		l.flows = without(l.flows, fl)
	}
	fl.remaining = 0
	f.recompute()
	fl.done.Fire(fl.arg)
}

// without deletes fl from flows, keeping the order of the rest.
func without(flows []*flow, fl *flow) []*flow {
	for i, x := range flows {
		if x == fl {
			copy(flows[i:], flows[i+1:])
			flows[len(flows)-1] = nil
			return flows[:len(flows)-1]
		}
	}
	return flows
}

// recompute updates every flow's progress, solves the max-min share
// problem by progressive filling, and reschedules completion events.
func (f *Fluid) recompute() {
	now := f.eng.Now()
	// Progress accounting at the old rates.
	for _, fl := range f.flows {
		fl.remaining -= fl.rate * (now - fl.updated)
		if fl.remaining < 0 {
			fl.remaining = 0
		}
		fl.updated = now
		fl.frozen = false
	}
	// Progressive filling.
	for _, l := range f.links {
		l.residual, l.active = l.capacity, len(l.flows)
	}
	for left := len(f.flows); left > 0; {
		// Find the link with the smallest fair share among links that
		// still carry unfrozen flows (the first one on ties).
		var bottleneck *link
		share := math.Inf(1)
		for _, l := range f.links {
			if l.active == 0 {
				continue
			}
			if cand := l.residual / float64(l.active); cand < share {
				share, bottleneck = cand, l
			}
		}
		if bottleneck == nil {
			break
		}
		if share < 0 {
			share = 0
		}
		for _, fl := range bottleneck.flows {
			if fl.frozen {
				continue
			}
			fl.frozen = true
			left--
			fl.rate = share
			for _, l := range fl.path {
				l.residual -= share
				if l.residual < 0 {
					l.residual = 0
				}
				l.active--
			}
		}
	}
	// Reschedule completions.
	for _, fl := range f.flows {
		f.eng.Cancel(fl.ev)
		var eta float64
		if fl.remaining <= 1e-12 {
			eta = 0
		} else if fl.rate <= 0 {
			// Starved flow: no event; a later recompute will revive it.
			fl.ev = des.Timer{}
			continue
		} else {
			eta = fl.remaining / fl.rate
		}
		target := fl
		fl.ev = f.eng.After(eta, func() { f.finish(target) })
	}
}
