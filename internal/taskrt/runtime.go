// Package taskrt is a sequential-task-flow runtime in the style of StarPU
// running over simulated time: tasks form a DAG, every task executes on
// the node that owns the data it writes (owner-computes), nodes expose
// heterogeneous execution units (aggregated CPU cores and individual
// GPUs), inter-node data dependencies become asynchronous network
// transfers that overlap with computation, and per-node schedulers pick
// ready tasks by priority — the mechanisms that give multi-phase
// applications their makespan behaviour in the paper.
//
// An application declares its DAG once per shape through a Builder; the
// built Graph is immutable and shared. Each run loads it with the
// placement of the moment (Load) and keeps its own dependency counters,
// times and transfer records in flat slices recycled across runs.
package taskrt

import (
	"fmt"
	"sync"

	"phasetune/internal/des"
	"phasetune/internal/simnet"
)

// Task describes one task: the handle NewTask returns, whose Node and
// timings are filled in when Run returns, or the view an Observer
// receives, valid only for the duration of the call.
type Task struct {
	ID       int
	Label    string
	Kind     string // kernel type, used for tracing and phase aggregation
	Flops    float64
	Node     int
	CPUOnly  bool  // generation-style kernels that never run on a GPU unit
	Priority int64 // larger runs first among ready tasks

	started, finished float64
	done              bool
}

// Started returns the simulated start time (valid after Run).
func (t *Task) Started() float64 { return t.started }

// Finished returns the simulated completion time (valid after Run).
func (t *Task) Finished() float64 { return t.finished }

// Done reports whether the task executed.
func (t *Task) Done() bool { return t.done }

// NodeSpec describes one node's execution units.
type NodeSpec struct {
	// CPUSpeed is the aggregated speed of the node's CPU cores in
	// Gflop/s.
	CPUSpeed float64
	// CPUCores splits CPUSpeed over that many independent CPU worker
	// units (one task each, StarPU-style). Zero or one exposes a single
	// aggregated CPU unit. Per-core units matter for fidelity: one tile
	// kernel on one core is orders of magnitude slower than on a GPU,
	// which is what creates the paper's critical-path cliffs on CPU-only
	// nodes.
	CPUCores int
	// GPUSpeeds lists each GPU's speed in Gflop/s.
	GPUSpeeds []float64
}

// Observer receives task lifecycle events (used by the trace package).
// The *Task is a view valid only during the call; copy what you keep.
// A nil observer costs nothing.
type Observer interface {
	TaskStarted(t *Task, unit string, at float64)
	TaskFinished(t *Task, unit string, at float64)
}

// unit is one execution resource of a node.
type unit struct {
	node  int
	idx   int     // position among the node's CPU (or GPU) units
	speed float64 // nominal Gflop/s (scaled by the node's fault factor)
	isGPU bool
	busy  bool
	cur   int32     // task in flight, -1 when idle (fault abort/rescale)
	ev    des.Timer // its completion event
}

// nodeState holds a node's units and scheduling parameters.
type nodeState struct {
	// The node's units are units[lo:hi]: CPUs, then GPUs from gpuLo.
	lo, gpuLo, hi    int
	idleCPU, idleGPU int
	dead             bool    // the node crashed (fault injection)
	factor           float64 // compute speed factor (1 = nominal)
	hasCPU           bool
	// cpuPull is the dmda-style threshold: a CPU unit steals GPU-capable
	// work only when more than cpuPull tasks are queued (otherwise the
	// task is worth waiting for a GPU, which is cpuPull times faster).
	// Zero on nodes without GPUs.
	cpuPull int
}

// Runtime drives one run of a task graph over the DES engine.
type Runtime struct {
	eng   *des.Engine
	net   simnet.Network
	nodes []nodeState
	units []unit
	obs   Observer
	// names and labels are what observers see of units and tasks;
	// formatted only when an observer is installed.
	names  []string
	labels []string
	view   Task

	g        *Graph
	st       *state // per-run state, from statePool between Load and the end of Run
	nPending int

	// The NewTask/AddDep front end declares into b; Run builds it and
	// reports back into the handles.
	b       *Builder
	handles []*Task

	// TaskOverhead is a fixed per-task runtime overhead in seconds
	// (submission, scheduling); StarPU-scale default.
	TaskOverhead float64
	makespan     float64
	// fault-injection state (see faults.go).
	injections []injection
	recovered  int
}

// Task state flags.
const (
	fDone uint8 = 1 << iota
	fRunning
	// fTracked: since a fault rebuild the task counts its dependencies
	// per predecessor link (state.open), because a producer may complete
	// a second time for consumers whose dependency a cached data copy
	// already satisfied.
	fTracked
)

// state is everything one run changes, in flat slices indexed by task,
// predecessor link or node. States are recycled across runs.
type state struct {
	node     []int32 // owner; a crash remaps the dead node's tasks
	nDeps    []int32 // outstanding dependencies
	started  []float64
	finished []float64
	flags    []uint8
	open     []bool // per predecessor link: outstanding (fTracked tasks)
	// Transfers are deduplicated per (producer, destination node): a
	// tile produced once and consumed by many tasks on the same remote
	// node crosses the network once, as under StarPU's MSI cache.
	// commHead[p] starts the list of p's live transfer records.
	commHead []int32
	comms    []comm
	waiters  []waiter
	queues   [][]ready // per node: GPU-capable, then CPU-only ready tasks
	touched  []int32   // nodes a completion released work on
}

// comm is one transfer of a producer's output to a destination node.
type comm struct {
	producer, dest int32
	next           int32 // next live record of the same producer, -1 at the end
	wHead, wTail   int32 // consumers waiting for the data, -1 when none
	arrived        bool
	void           bool // invalidated by a fault (dead destination or rolled-back producer)
}

type waiter struct{ task, next int32 }

var statePool sync.Pool

// New creates a runtime over the engine, node specs and network.
func New(eng *des.Engine, nodes []NodeSpec, net simnet.Network) *Runtime {
	nUnits := 0
	for _, spec := range nodes {
		if spec.CPUSpeed > 0 {
			nUnits += max(spec.CPUCores, 1)
		}
		nUnits += len(spec.GPUSpeeds)
	}
	rt := &Runtime{
		eng:          eng,
		net:          net,
		nodes:        make([]nodeState, len(nodes)),
		units:        make([]unit, 0, nUnits),
		TaskOverhead: 2e-5,
	}
	for i, spec := range nodes {
		ns := &rt.nodes[i]
		ns.factor = 1
		ns.lo = len(rt.units)
		coreSpeed := 0.0
		if spec.CPUSpeed > 0 {
			cores := max(spec.CPUCores, 1)
			coreSpeed = spec.CPUSpeed / float64(cores)
			for c := 0; c < cores; c++ {
				rt.units = append(rt.units, unit{node: i, idx: c, speed: coreSpeed, cur: -1})
			}
		}
		ns.gpuLo = len(rt.units)
		maxGPU := 0.0
		for g, s := range spec.GPUSpeeds {
			rt.units = append(rt.units, unit{node: i, idx: g, speed: s, isGPU: true, cur: -1})
			if s > maxGPU {
				maxGPU = s
			}
		}
		if maxGPU > 0 && coreSpeed > 0 {
			ns.cpuPull = int(maxGPU / coreSpeed)
		}
		ns.hasCPU = coreSpeed > 0
		ns.hi = len(rt.units)
		ns.idleCPU, ns.idleGPU = ns.gpuLo-ns.lo, ns.hi-ns.gpuLo
	}
	return rt
}

// SetObserver installs a task lifecycle observer (pass nil to remove).
func (r *Runtime) SetObserver(o Observer) { r.obs = o }

// Load installs a built graph for the next Run, resolving each task's
// place to the node owners[place.Set](place.I, place.J). It panics if
// an owner is not a node of the runtime.
func (r *Runtime) Load(g *Graph, owners ...func(i, j int) int) {
	if len(owners) < g.sets {
		panic(fmt.Sprintf("taskrt: graph uses %d owner sets, %d given", g.sets, len(owners)))
	}
	s := newState(g, len(r.nodes))
	for t := range g.tasks {
		at := g.tasks[t].at
		n := owners[at.Set](int(at.I), int(at.J))
		if n < 0 || n >= len(r.nodes) {
			panic(fmt.Sprintf("taskrt: task %q on unknown node %d", g.tasks[t].label, n))
		}
		s.node[t] = int32(n)
	}
	r.g, r.st, r.nPending = g, s, len(g.tasks)
}

// newState takes a state from the pool, sized and reset for g.
func newState(g *Graph, nodes int) *state {
	s, _ := statePool.Get().(*state)
	if s == nil {
		s = new(state)
	}
	n := len(g.tasks)
	s.node = resize(s.node, n)
	s.nDeps = resize(s.nDeps, n)
	for t := range s.nDeps {
		s.nDeps[t] = g.predOff[t+1] - g.predOff[t]
	}
	s.started = resize(s.started, n)
	s.finished = resize(s.finished, n)
	s.flags = resize(s.flags, n)
	s.open = resize(s.open, len(g.pred))
	s.commHead = resize(s.commHead, n)
	for t := range s.commHead {
		s.commHead[t] = -1
	}
	s.comms = s.comms[:0]
	s.waiters = s.waiters[:0]
	if cap(s.queues) < 2*nodes {
		s.queues = make([][]ready, 2*nodes)
	}
	s.queues = s.queues[:2*nodes]
	for i := range s.queues {
		s.queues[i] = s.queues[i][:0]
	}
	return s
}

// resize returns a zeroed slice of length n, reusing s's storage when it
// is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// NewTask declares a task assigned to a node, for DAGs built directly on
// one runtime rather than through a Builder. The task becomes ready
// when all dependencies declared through AddDep are satisfied; tasks
// with no dependencies are released when Run starts.
func (r *Runtime) NewTask(label, kind string, flops float64, node int, cpuOnly bool, priority int64) *Task {
	if node < 0 || node >= len(r.nodes) {
		panic(fmt.Sprintf("taskrt: task %q on unknown node %d", label, node))
	}
	if r.b == nil {
		r.b = &Builder{}
	}
	id := r.b.Add(NewLabel(label), kind, flops, Place{I: int32(node)}, cpuOnly, priority)
	t := &Task{
		ID: int(id), Label: label, Kind: kind, Flops: flops,
		Node: node, CPUOnly: cpuOnly, Priority: priority,
	}
	r.handles = append(r.handles, t)
	return t
}

// AddDep declares that consumer needs producer's output of the given
// size (see Builder.Dep). A nil producer is ignored.
func (r *Runtime) AddDep(consumer, producer *Task, bytes float64) {
	if producer == nil {
		return
	}
	if producer.done {
		panic("taskrt: dependency on an already-executed task")
	}
	r.b.Dep(TaskID(consumer.ID), TaskID(producer.ID), bytes)
}

// Run releases root tasks, drives the engine until the DAG drains, and
// returns the makespan. It runs the loaded graph, or else the tasks
// declared with NewTask. It panics if tasks remain blocked (a
// dependency cycle or an unconnected transfer), which would indicate a
// builder bug.
func (r *Runtime) Run() float64 {
	if r.g == nil {
		if r.b == nil {
			r.b = &Builder{}
		}
		r.Load(r.b.Build(), func(node, _ int) int { return node })
	}
	if r.obs != nil {
		r.labels = r.g.Labels()
		r.nameUnits()
	}
	for _, inj := range r.injections {
		inj := inj
		r.eng.Schedule(inj.at, func() { r.apply(inj) })
	}
	for _, t := range r.g.roots {
		r.push(t)
	}
	for node := range r.nodes {
		r.dispatch(node)
	}
	r.eng.Run()
	if r.nPending != 0 {
		panic(fmt.Sprintf("taskrt: %d tasks never became ready (cycle?)", r.nPending))
	}
	r.release()
	return r.makespan
}

// release reports the run into the NewTask handles and recycles the
// per-run state.
func (r *Runtime) release() {
	s := r.st
	for _, h := range r.handles {
		h.Node = int(s.node[h.ID])
		h.started, h.finished = s.started[h.ID], s.finished[h.ID]
		h.done = s.flags[h.ID]&fDone != 0
	}
	r.st = nil
	statePool.Put(s)
}

// nameUnits formats the unit names observers receive.
func (r *Runtime) nameUnits() {
	if r.names != nil {
		return
	}
	r.names = make([]string, len(r.units))
	for i, u := range r.units {
		kind := "cpu"
		if u.isGPU {
			kind = "gpu"
		}
		r.names[i] = fmt.Sprintf("n%d.%s%d", u.node, kind, u.idx)
	}
}

// viewOf fills the observer view of task t.
func (r *Runtime) viewOf(t int32) *Task {
	s, ti := r.st, &r.g.tasks[t]
	r.view = Task{
		ID: int(t), Label: r.labels[t], Kind: ti.kind, Flops: ti.flops,
		Node: int(s.node[t]), CPUOnly: ti.cpuOnly, Priority: ti.prio,
		started: s.started[t], finished: s.finished[t], done: s.flags[t]&fDone != 0,
	}
	return &r.view
}

// Makespan returns the completion time of the last task (valid after Run).
func (r *Runtime) Makespan() float64 { return r.makespan }

// NumTasks returns the number of tasks loaded or declared.
func (r *Runtime) NumTasks() int {
	if r.g != nil {
		return r.g.NumTasks()
	}
	if r.b != nil {
		return r.b.Len()
	}
	return 0
}

// push puts a ready task on its node's queue (without dispatching, so
// that same-instant batches are priority-ordered before units grab work).
func (r *Runtime) push(t int32) {
	q := 2 * int(r.st.node[t])
	ti := &r.g.tasks[t]
	if ti.cpuOnly {
		q++
	}
	pushReady(&r.st.queues[q], ready{prio: ti.prio, task: t})
}

// dispatch greedily assigns ready tasks to free units on a node, each
// to the first free unit in unit order. GPU units (the fast ones) drain
// the GPU-capable queue first; the CPU units then serve whichever queue
// has the highest-priority ready task.
func (r *Runtime) dispatch(node int) {
	ns := &r.nodes[node]
	if ns.dead {
		return
	}
	anyQ, cpuOnlyQ := &r.st.queues[2*node], &r.st.queues[2*node+1]
	for ui := ns.gpuLo; ui < ns.hi && ns.idleGPU > 0 && len(*anyQ) > 0; ui++ {
		if !r.units[ui].busy {
			r.execute(popReady(anyQ), ui)
		}
	}
	for ui := ns.lo; ui < ns.gpuLo && ns.idleCPU > 0; ui++ {
		if r.units[ui].busy {
			continue
		}
		// CPU units always serve CPU-only work; they steal GPU-capable
		// work only past the dmda threshold: with a GPU cpuPull times
		// faster, stealing pays off once the queue is at least cpuPull
		// deep (the queue wait exceeds the slower CPU execution).
		canSteal := len(*anyQ) > 0 && len(*anyQ) >= ns.cpuPull
		var t int32
		switch {
		case len(*cpuOnlyQ) == 0 && !canSteal:
			return // nothing any CPU unit may take
		case len(*cpuOnlyQ) == 0:
			t = popReady(anyQ)
		case !canSteal || (*cpuOnlyQ)[0].prio >= (*anyQ)[0].prio:
			t = popReady(cpuOnlyQ)
		default:
			t = popReady(anyQ)
		}
		r.execute(t, ui)
	}
}

// setBusy marks a unit busy or free, keeping its node's free counts.
func (r *Runtime) setBusy(u *unit, busy bool) {
	u.busy = busy
	d := 1
	if busy {
		d = -1
	}
	if ns := &r.nodes[u.node]; u.isGPU {
		ns.idleGPU += d
	} else {
		ns.idleCPU += d
	}
}

// completion is the runtime as the handler of task completions; the
// event argument is the unit.
type completion Runtime

func (c *completion) Fire(unit int) { (*Runtime)(c).finish(unit) }

// arrival is the runtime as the handler of transfer arrivals; the event
// argument is the transfer record.
type arrival Runtime

func (a *arrival) Fire(comm int) { (*Runtime)(a).arrive(comm) }

// execute runs a task on a unit in simulated time.
func (r *Runtime) execute(t int32, ui int) {
	s := r.st
	u := &r.units[ui]
	r.setBusy(u, true)
	u.cur = t
	s.flags[t] |= fRunning
	s.started[t] = r.eng.Now()
	if r.obs != nil {
		r.obs.TaskStarted(r.viewOf(t), r.names[ui], s.started[t])
	}
	dur := r.TaskOverhead
	if u.speed > 0 {
		dur += r.g.tasks[t].flops / (u.speed * r.nodes[s.node[t]].factor)
	}
	u.ev = r.eng.PostAfter(dur, (*completion)(r), ui)
}

// finish completes the task on a unit (also the rescheduling target
// when a fault rescales in-flight work).
func (r *Runtime) finish(ui int) {
	s := r.st
	u := &r.units[ui]
	t := u.cur
	now := r.eng.Now()
	s.finished[t] = now
	s.flags[t] = s.flags[t]&^(fRunning|fTracked) | fDone
	u.cur, u.ev = -1, des.Timer{}
	if now > r.makespan {
		r.makespan = now
	}
	if r.obs != nil {
		r.obs.TaskFinished(r.viewOf(t), r.names[ui], now)
	}
	r.nPending--
	r.setBusy(u, false)
	r.complete(t)
	r.dispatch(int(s.node[t]))
}

// complete propagates a finished task to its consumers, starting network
// transfers for remote ones. Newly ready consumers are pushed first and
// their nodes dispatched afterwards, in ascending node order, so
// priorities order same-instant releases.
func (r *Runtime) complete(t int32) {
	s, g := r.st, r.g
	src := s.node[t]
	touched := s.touched[:0]
	for _, e := range g.succ[g.succOff[t]:g.succOff[t+1]] {
		c := e.task
		if s.flags[c]&fDone != 0 {
			// Only possible after fault recovery: the producer re-ran
			// for another consumer's sake.
			continue
		}
		dst := s.node[c]
		if dst == src || e.bytes <= 0 {
			if r.resolve(c, t) {
				touched = addNode(touched, dst)
			}
			continue
		}
		if ci := s.findComm(t, dst); ci >= 0 {
			if s.comms[ci].arrived {
				if r.resolve(c, t) {
					touched = addNode(touched, dst)
				}
			} else {
				s.addWaiter(ci, c)
			}
			continue
		}
		ci := s.newComm(t, dst, c)
		r.net.Transfer(int(src), int(dst), e.bytes, (*arrival)(r), ci)
	}
	s.touched = touched
	for _, node := range touched {
		r.dispatch(int(node))
	}
}

// addNode adds node to the set nodes, kept in ascending order.
func addNode(nodes []int32, node int32) []int32 {
	i := len(nodes)
	for i > 0 && nodes[i-1] >= node {
		if nodes[i-1] == node {
			return nodes
		}
		i--
	}
	nodes = append(nodes, 0)
	copy(nodes[i+1:], nodes[i:])
	nodes[i] = node
	return nodes
}

// arrive completes a transfer: it releases the waiting consumers unless
// a fault voided the transfer in the meantime.
func (r *Runtime) arrive(ci int) {
	s := r.st
	cs := &s.comms[ci]
	if cs.void {
		return
	}
	cs.arrived = true
	producer, dest, w := cs.producer, cs.dest, cs.wHead
	cs.wHead, cs.wTail = -1, -1
	ready := false
	for ; w >= 0; w = s.waiters[w].next {
		if r.resolve(s.waiters[w].task, producer) {
			ready = true
		}
	}
	if ready {
		r.dispatch(int(dest))
	}
}

// findComm returns the live transfer record of producer's output to
// dest, or -1.
func (s *state) findComm(producer, dest int32) int {
	for ci := s.commHead[producer]; ci >= 0; ci = s.comms[ci].next {
		if s.comms[ci].dest == dest {
			return int(ci)
		}
	}
	return -1
}

// newComm records a transfer of producer's output to dest with one
// waiting consumer.
func (s *state) newComm(producer, dest, consumer int32) int {
	ci := len(s.comms)
	s.comms = append(s.comms, comm{
		producer: producer, dest: dest, next: s.commHead[producer], wHead: -1, wTail: -1,
	})
	s.commHead[producer] = int32(ci)
	s.addWaiter(ci, consumer)
	return ci
}

// addWaiter queues consumer t on transfer ci.
func (s *state) addWaiter(ci int, t int32) {
	w := int32(len(s.waiters))
	s.waiters = append(s.waiters, waiter{task: t, next: -1})
	cs := &s.comms[ci]
	if cs.wTail >= 0 {
		s.waiters[cs.wTail].next = w
	} else {
		cs.wHead = w
	}
	cs.wTail = w
}

// resolve decrements a consumer's dependency count, pushing it on its
// node's ready queue when it becomes ready. It reports whether the task
// became ready. After a fault rebuild the per-link outstanding flags
// guard against double-resolving a dependency a cached data copy
// already satisfied.
func (r *Runtime) resolve(c, producer int32) bool {
	s := r.st
	if s.flags[c]&(fDone|fRunning) != 0 {
		return false
	}
	if s.flags[c]&fTracked != 0 && !r.settle(c, producer) {
		return false
	}
	s.nDeps[c]--
	if s.nDeps[c] == 0 {
		r.push(c)
		return true
	}
	return false
}

// settle clears one outstanding dependency link of c on producer,
// reporting false when none is outstanding.
func (r *Runtime) settle(c, producer int32) bool {
	g, s := r.g, r.st
	for e := g.predOff[c]; e < g.predOff[c+1]; e++ {
		if g.pred[e].task == producer && s.open[e] {
			s.open[e] = false
			return true
		}
	}
	return false
}

// ready is a queued task with its priority.
type ready struct {
	prio int64
	task int32
}

// before orders ready tasks: higher priority first, ties by lower ID,
// keeping submission order (StarPU's prio queue behaviour).
func before(a, b ready) bool {
	if a.prio != b.prio {
		return a.prio > b.prio
	}
	return a.task < b.task
}

// pushReady adds x to the heap q.
func pushReady(q *[]ready, x ready) {
	h := append(*q, x)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !before(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

// popReady removes and returns the first task of the heap q.
func popReady(q *[]ready) int32 {
	h := *q
	top := h[0].task
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(h[r], h[c]) {
			c = r
		}
		if !before(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	*q = h
	return top
}
