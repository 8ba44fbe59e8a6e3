package taskrt

import (
	"fmt"
	"strconv"
	"sync"
)

// TaskID identifies a task of a Builder and of the Graph it builds.
type TaskID int32

// NoTask is the absent producer: a dependency on it is ignored.
const NoTask TaskID = -1

// Label is a task's name in coordinate form, "name(i,j,k)". A graph
// formats its labels only when an observer first needs them, once per
// graph.
type Label struct {
	name   string
	n      int8 // coordinates used
	coords [3]int32
}

// NewLabel returns the label name(coords...), with at most three
// coordinates.
func NewLabel(name string, coords ...int) Label {
	if len(coords) > 3 {
		panic(fmt.Sprintf("taskrt: label %q with %d coordinates", name, len(coords)))
	}
	l := Label{name: name, n: int8(len(coords))}
	for i, c := range coords {
		l.coords[i] = int32(c)
	}
	return l
}

// String formats the label.
func (l Label) String() string {
	if l.n == 0 {
		return l.name
	}
	b := make([]byte, 0, len(l.name)+16)
	b = append(b, l.name...)
	for i, c := range l.coords[:l.n] {
		if i == 0 {
			b = append(b, '(')
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(append(b, ')'))
}

// OwnerSet indexes the owner functions a graph is loaded with (see
// Runtime.Load): tasks placed in set s run on owners[s](i, j), the node
// owning tile (i, j) (owner-computes).
type OwnerSet uint8

// At places a task on the owner of tile (i, j) in this set.
func (s OwnerSet) At(i, j int) Place { return Place{Set: s, I: int32(i), J: int32(j)} }

// Place is where a task runs, resolved to a node when its graph is
// loaded.
type Place struct {
	Set  OwnerSet
	I, J int32
}

// taskInfo is the part of a task that depends only on the graph's
// shape.
type taskInfo struct {
	label   Label
	kind    string
	flops   float64
	prio    int64
	at      Place
	cpuOnly bool
}

// link is one dependency: the task at the other end and the bytes that
// move if the two tasks run on different nodes.
type link struct {
	task  int32
	bytes float64
}

// Builder declares a task DAG. Tasks and dependencies keep their
// declaration order, which fixes the order in which a finished task
// releases its consumers and so the simulation's event order.
type Builder struct {
	tasks []taskInfo
	deps  []dep
}

type dep struct {
	consumer, producer int32
	bytes              float64
}

// Add declares a task and returns its id: a kernel kind (phase
// aggregation), its cost in Gflop, where it runs, whether only CPU units
// may run it, and its priority (larger runs first among ready tasks).
func (b *Builder) Add(label Label, kind string, flops float64, at Place, cpuOnly bool, priority int64) TaskID {
	b.tasks = append(b.tasks, taskInfo{
		label: label, kind: kind, flops: flops, prio: priority, at: at, cpuOnly: cpuOnly,
	})
	return TaskID(len(b.tasks) - 1)
}

// Dep declares that consumer needs producer's output of the given size.
// If the two tasks run on different nodes the bytes move by an
// asynchronous transfer once the producer completes, once per
// destination node. A NoTask producer is ignored.
func (b *Builder) Dep(consumer, producer TaskID, bytes float64) {
	if producer == NoTask {
		return
	}
	b.deps = append(b.deps, dep{consumer: int32(consumer), producer: int32(producer), bytes: bytes})
}

// Len returns the number of declared tasks.
func (b *Builder) Len() int { return len(b.tasks) }

// Build compiles the declared DAG. The graph is immutable and safe to
// run from any number of runtimes at once; tasks declared afterwards do
// not join it.
func (b *Builder) Build() *Graph {
	n := len(b.tasks)
	g := &Graph{
		tasks:   b.tasks[:n:n],
		succOff: make([]int32, n+1),
		predOff: make([]int32, n+1),
		succ:    make([]link, len(b.deps)),
		pred:    make([]link, len(b.deps)),
	}
	for _, d := range b.deps {
		g.succOff[d.producer+1]++
		g.predOff[d.consumer+1]++
	}
	for t := 0; t < n; t++ {
		g.succOff[t+1] += g.succOff[t]
		g.predOff[t+1] += g.predOff[t]
	}
	succAt := append([]int32(nil), g.succOff[:n]...)
	predAt := append([]int32(nil), g.predOff[:n]...)
	for _, d := range b.deps {
		g.succ[succAt[d.producer]] = link{task: d.consumer, bytes: d.bytes}
		succAt[d.producer]++
		g.pred[predAt[d.consumer]] = link{task: d.producer, bytes: d.bytes}
		predAt[d.consumer]++
	}
	for t := 0; t < n; t++ {
		if g.predOff[t] == g.predOff[t+1] {
			g.roots = append(g.roots, int32(t))
		}
		if s := int(g.tasks[t].at.Set) + 1; s > g.sets {
			g.sets = s
		}
	}
	return g
}

// Graph is a compiled task DAG: per-task attributes by TaskID and the
// dependencies in compressed sparse rows, successors and predecessors
// each in declaration order. Only placement is left open: Runtime.Load
// resolves it per run.
type Graph struct {
	tasks   []taskInfo
	succOff []int32 // successors of t: succ[succOff[t]:succOff[t+1]]
	succ    []link
	predOff []int32 // predecessors of t: pred[predOff[t]:predOff[t+1]]
	pred    []link
	roots   []int32 // tasks without dependencies, ascending
	sets    int     // owner sets the tasks use

	labelsOnce sync.Once
	labels     []string
}

// NumTasks returns the number of tasks.
func (g *Graph) NumTasks() int { return len(g.tasks) }

// Labels returns every task's formatted label by TaskID, formatting
// them on first use. The slice is shared; treat it as read-only.
func (g *Graph) Labels() []string {
	g.labelsOnce.Do(func() {
		g.labels = make([]string, len(g.tasks))
		for i := range g.tasks {
			g.labels[i] = g.tasks[i].label.String()
		}
	})
	return g.labels
}

// GraphCache keeps the most recently used graphs of an application,
// one per shape key, building each at most once however many callers
// ask for it at the same time.
type GraphCache[K comparable] struct {
	max     int
	mu      sync.Mutex
	entries []*cachedGraph[K] // most recently used last
}

type cachedGraph[K comparable] struct {
	key  K
	once sync.Once
	g    *Graph
}

// NewGraphCache returns a cache holding at most max graphs.
func NewGraphCache[K comparable](max int) *GraphCache[K] {
	return &GraphCache[K]{max: max}
}

// Get returns the graph for key, calling build on a miss.
func (c *GraphCache[K]) Get(key K, build func() *Graph) *Graph {
	c.mu.Lock()
	var e *cachedGraph[K]
	for i, x := range c.entries {
		if x.key == key {
			e = x
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			break
		}
	}
	if e == nil {
		e = &cachedGraph[K]{key: key}
		if len(c.entries) == c.max {
			c.entries = append(c.entries[:0], c.entries[1:]...)
		}
	}
	c.entries = append(c.entries, e)
	c.mu.Unlock()
	e.once.Do(func() { e.g = build() })
	return e.g
}
