package taskrt

import (
	"fmt"

	"phasetune/internal/des"
)

// This file implements fault injection for the runtime: node crashes
// with owner-computes recovery of the lost data partition, and compute
// slowdowns that rescale in-flight work. Faults are declared before Run
// and strike at simulated times, mirroring a resource manager's failure
// notifications under StarPU/MPI.

// injection is one scheduled fault.
type injection struct {
	at     float64
	node   int
	factor float64
	crash  bool
}

// InjectCrash schedules a permanent crash of node at simulated time at.
// When it strikes, tasks running on the node are aborted, every
// unfinished task it owns is remapped onto the survivors
// (owner-computes: the lost data partition changes owner), and completed
// tasks whose output lived only on the dead node are rolled back for
// re-execution. Panics if the node index is unknown.
func (r *Runtime) InjectCrash(node int, at float64) {
	if node < 0 || node >= len(r.nodes) {
		panic(fmt.Sprintf("taskrt: crash on unknown node %d", node))
	}
	if at < 0 {
		at = 0
	}
	r.injections = append(r.injections, injection{at: at, node: node, crash: true})
}

// InjectSpeedFactor schedules a compute-speed change of node at
// simulated time at: every unit on the node runs at factor times its
// nominal speed from then on, and work in flight is rescaled mid-task.
// Factor 1 restores nominal speed (the tail of a transient slowdown).
func (r *Runtime) InjectSpeedFactor(node int, at, factor float64) {
	if node < 0 || node >= len(r.nodes) {
		panic(fmt.Sprintf("taskrt: slowdown on unknown node %d", node))
	}
	if factor <= 0 {
		panic(fmt.Sprintf("taskrt: non-positive speed factor %v", factor))
	}
	if at < 0 {
		at = 0
	}
	r.injections = append(r.injections, injection{at: at, node: node, factor: factor})
}

// RecoveredTasks returns how many task executions were aborted or rolled
// back by faults and re-run on surviving nodes (valid after Run).
func (r *Runtime) RecoveredTasks() int { return r.recovered }

// AliveNodes returns the number of nodes that have not crashed.
func (r *Runtime) AliveNodes() int {
	n := 0
	for _, ns := range r.nodes {
		if !ns.dead {
			n++
		}
	}
	return n
}

// apply executes one injection at its simulated time.
func (r *Runtime) apply(inj injection) {
	if inj.crash {
		r.crash(inj.node)
	} else {
		r.setSpeedFactor(inj.node, inj.factor)
	}
}

// setSpeedFactor changes a node's compute speed mid-flight: running
// tasks keep their accumulated progress and their remaining work is
// rescaled by the speed ratio.
func (r *Runtime) setSpeedFactor(node int, factor float64) {
	ns := &r.nodes[node]
	//lint:allow floatsafe factors are exact fault-plan constants; the early-out wants bitwise sameness, not closeness
	if ns.dead || factor == ns.factor {
		return
	}
	old := ns.factor
	ns.factor = factor
	for ui := ns.lo; ui < ns.hi; ui++ {
		u := &r.units[ui]
		if u.cur < 0 || u.speed <= 0 {
			continue
		}
		rem := u.ev.Time() - r.eng.Now()
		if rem < 0 {
			rem = 0
		}
		r.eng.Cancel(u.ev)
		u.ev = r.eng.PostAfter(rem*old/factor, (*completion)(r), ui)
	}
}

// crash kills a node: abort, remap, roll back the lost data partition,
// rebuild the dependency state and keep going on the survivors.
func (r *Runtime) crash(node int) {
	ns := &r.nodes[node]
	if ns.dead {
		return
	}
	ns.dead = true
	var surv, survCPU []int
	for i, n2 := range r.nodes {
		if !n2.dead {
			surv = append(surv, i)
			if n2.hasCPU {
				survCPU = append(survCPU, i)
			}
		}
	}
	if len(surv) == 0 {
		panic("taskrt: every node crashed; nothing left to recover on")
	}
	s, g := r.st, r.g
	// Owner-computes remap: the dead node's partition is dealt round-
	// robin (by task ID, hence deterministically) over the survivors;
	// CPU-only work goes to survivors that still have CPU units.
	remap := func(t int) int32 {
		pool := surv
		if g.tasks[t].cpuOnly && len(survCPU) > 0 {
			pool = survCPU
		}
		return int32(pool[t%len(pool)])
	}

	// Abort work in flight on the dead node.
	for ui := ns.lo; ui < ns.hi; ui++ {
		u := &r.units[ui]
		if u.cur < 0 {
			continue
		}
		r.eng.Cancel(u.ev)
		s.flags[u.cur] &^= fRunning
		u.cur, u.ev = -1, des.Timer{}
		r.setBusy(u, false)
		r.recovered++
	}

	// Re-home every unfinished task owned by a dead node.
	for t := range s.node {
		if s.flags[t]&fDone == 0 && r.nodes[s.node[t]].dead {
			s.node[t] = remap(t)
		}
	}

	// Lost-data fixpoint: a completed task whose output lived on a dead
	// node and is still needed by an unfinished consumer (with no cached
	// copy on the consumer's node) must re-execute on its new owner.
	// Rolling one producer back can orphan its own inputs, so iterate to
	// a fixpoint.
	for changed := true; changed; {
		changed = false
		for q := range s.node {
			if s.flags[q]&fDone == 0 || !r.nodes[s.node[q]].dead || !r.outputNeeded(int32(q)) {
				continue
			}
			s.flags[q] &^= fDone | fRunning
			s.node[q] = remap(q)
			r.nPending++
			r.recovered++
			changed = true
		}
	}

	r.rebuild()
}

// outputNeeded reports whether a completed task's output bytes are still
// required by an unfinished consumer that cannot read them locally or
// from a cached remote copy.
func (r *Runtime) outputNeeded(q int32) bool {
	g, s := r.g, r.st
	for _, e := range g.succ[g.succOff[q]:g.succOff[q+1]] {
		if s.flags[e.task]&fDone != 0 || e.bytes <= 0 {
			continue
		}
		if !r.dataAt(q, s.node[e.task]) {
			return true
		}
	}
	return false
}

// dataAt reports whether q's output is present on node: either q ran
// there, or a transfer already delivered it (the MSI cache copy survives
// even if q is later rolled back).
func (r *Runtime) dataAt(q, node int32) bool {
	s := r.st
	if s.flags[q]&fDone != 0 && s.node[q] == node {
		return true
	}
	ci := s.findComm(q, node)
	return ci >= 0 && s.comms[ci].arrived
}

// rebuild reconstructs the dependency counters, ready queues and
// transfer fabric after a crash changed task placement, then redispatches
// the survivors.
func (r *Runtime) rebuild() {
	g, s := r.g, r.st
	// Invalidate transfers a fault made meaningless: data heading to a
	// dead node, or in flight from a producer that was rolled back.
	for ci := range s.comms {
		cs := &s.comms[ci]
		if cs.void {
			continue
		}
		if r.nodes[cs.dest].dead || (!cs.arrived && s.flags[cs.producer]&fDone == 0) {
			cs.void = true
			continue
		}
		if !cs.arrived {
			cs.wHead, cs.wTail = -1, -1 // re-collected below
		}
	}
	for t := range s.commHead {
		s.commHead[t] = -1
	}
	for ci := range s.comms {
		if cs := &s.comms[ci]; !cs.void {
			cs.next = s.commHead[cs.producer]
			s.commHead[cs.producer] = int32(ci)
		}
	}
	// Reset the ready queues; they are repopulated from scratch.
	for i := range s.queues {
		s.queues[i] = s.queues[i][:0]
	}
	// Recount outstanding dependencies from the predecessor links and
	// restart the data movements re-homed consumers still need.
	for c := range s.node {
		if s.flags[c]&(fDone|fRunning) != 0 {
			continue
		}
		s.nDeps[c] = 0
		s.flags[c] |= fTracked
		for e := g.predOff[c]; e < g.predOff[c+1]; e++ {
			pe := g.pred[e]
			q := pe.task
			qDone := s.flags[q]&fDone != 0
			s.open[e] = false
			if qDone && (pe.bytes <= 0 || r.dataAt(q, s.node[c])) {
				continue
			}
			s.nDeps[c]++
			s.open[e] = true
			if qDone && pe.bytes > 0 {
				r.fetch(q, int32(c), pe.bytes)
			}
		}
		if s.nDeps[c] == 0 {
			r.push(int32(c))
		}
	}
	for i := range r.nodes {
		if !r.nodes[i].dead {
			r.dispatch(i)
		}
	}
}

// fetch joins or starts the transfer of q's (already produced) output to
// c's node.
func (r *Runtime) fetch(q, c int32, bytes float64) {
	s := r.st
	dest := s.node[c]
	if ci := s.findComm(q, dest); ci >= 0 {
		// Still in flight from before the fault (arrived copies were
		// counted as satisfied and never reach here).
		s.addWaiter(ci, c)
		return
	}
	ci := s.newComm(q, dest, c)
	r.net.Transfer(int(s.node[q]), int(dest), bytes, (*arrival)(r), ci)
}
