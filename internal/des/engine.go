// Package des is a minimal discrete-event simulation core: a virtual
// clock and a time-ordered event queue with cancellation. It plays the
// role SimGrid's simulation kernel plays for StarPU-SimGrid in the paper.
package des

// Handler is the target of a posted event: Fire runs when the event
// fires, with the argument it was posted with. Posting a long-lived
// handler instead of a fresh closure is what lets hot paths (task
// completions, network transfers) schedule events without allocating.
type Handler interface {
	Fire(arg int)
}

// Func adapts a plain callback to Handler; the argument is ignored.
type Func func()

// Fire implements Handler.
func (f Func) Fire(int) { f() }

// event is a scheduled callback. Events are recycled once fired or
// cancelled.
type event struct {
	at    float64
	seq   uint64
	h     Handler
	arg   int
	index int // heap index, -1 once removed
}

// Timer identifies a scheduled event, for cancellation. It stays safe
// to use after its event fired: the engine recycles events, and a
// recycled event carries a new sequence number.
type Timer struct {
	ev  *event
	seq uint64
}

// Time returns the simulated time at which the timer's event fires.
// Valid only while the event is pending.
func (t Timer) Time() float64 { return t.ev.at }

// Engine owns the virtual clock and the pending event set.
type Engine struct {
	now    float64
	queue  []entry // binary min-heap on (at, seq)
	seq    uint64
	nSteps uint64
	free   []*event // recycled events
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Schedule registers fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it would corrupt causality.
func (e *Engine) Schedule(at float64, fn func()) Timer { return e.Post(at, Func(fn), 0) }

// After registers fn to run delay seconds from now.
func (e *Engine) After(delay float64, fn func()) Timer { return e.PostAfter(delay, Func(fn), 0) }

// Post registers h.Fire(arg) to run at absolute time at, like Schedule
// but without a closure.
func (e *Engine) Post(at float64, h Handler, arg int) Timer {
	if at < e.now {
		panic("des: scheduling into the past")
	}
	n := len(e.free)
	if n == 0 {
		block := make([]event, 64)
		for i := range block {
			e.free = append(e.free, &block[i])
		}
		n = len(e.free)
	}
	ev := e.free[n-1]
	e.free = e.free[:n-1]
	*ev = event{at: at, seq: e.seq, h: h, arg: arg, index: len(e.queue)}
	e.seq++
	e.queue = append(e.queue, entry{at: at, seq: ev.seq, ev: ev})
	e.up(ev.index)
	return Timer{ev: ev, seq: ev.seq}
}

// PostAfter registers h.Fire(arg) to run delay seconds from now.
func (e *Engine) PostAfter(delay float64, h Handler, arg int) Timer {
	if delay < 0 {
		delay = 0
	}
	return e.Post(e.now+delay, h, arg)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event, or the zero Timer, is a no-op.
func (e *Engine) Cancel(t Timer) {
	if t.ev == nil || t.ev.seq != t.seq || t.ev.index < 0 {
		return
	}
	e.recycle(e.remove(t.ev.index))
}

// Step executes the earliest pending event. It reports whether an event
// was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.remove(0)
	e.now = ev.at
	e.nSteps++
	h, arg := ev.h, ev.arg
	e.recycle(ev)
	h.Fire(arg)
	return true
}

// Run executes events until the queue drains and returns the final clock.
func (e *Engine) Run() float64 {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with time <= t, then advances the clock to t
// (if it is ahead of the last event).
func (e *Engine) RunUntil(t float64) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.Step()
	}
	if t > e.now {
		e.now = t
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.queue) }

func (e *Engine) recycle(ev *event) {
	ev.h = nil
	e.free = append(e.free, ev)
}

// entry is a queued event with its sort key, kept inline so heap moves
// compare without following the pointer.
type entry struct {
	at  float64
	seq uint64
	ev  *event
}

// The queue orders events by (time, insertion sequence) so simultaneous
// events run in FIFO order, keeping simulations deterministic.

func less(a, b *entry) bool {
	//lint:allow floatsafe lexicographic (time, seq) order needs exact equality; a tolerance would break the strict weak ordering
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// remove takes the event at heap position i out of the queue.
func (e *Engine) remove(i int) *event {
	q := e.queue
	last := len(q) - 1
	ev := q[i].ev
	if i != last {
		q[i] = q[last]
		q[i].ev.index = i
	}
	q[last] = entry{}
	e.queue = q[:last]
	if i != last {
		if !e.down(i) {
			e.up(i)
		}
	}
	ev.index = -1
	return ev
}

func (e *Engine) up(i int) {
	q := e.queue
	for i > 0 {
		p := (i - 1) / 2
		if !less(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		q[i].ev.index, q[p].ev.index = i, p
		i = p
	}
}

// down sifts position i toward the leaves and reports whether it moved.
func (e *Engine) down(i int) bool {
	q := e.queue
	n := len(q)
	start := i
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(&q[r], &q[c]) {
			c = r
		}
		if !less(&q[c], &q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		q[i].ev.index, q[c].ev.index = i, c
		i = c
	}
	return i > start
}
