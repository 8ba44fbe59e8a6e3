package des

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("final time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := NewEngine()
	var seen float64 = -1
	e.After(2, func() {
		seen = e.Now()
		e.After(3, func() { seen = e.Now() })
	})
	e.Run()
	if seen != 5 {
		t.Fatalf("nested After ended at %v, want 5", seen)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double cancel is a no-op
	e.Cancel(Timer{})
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatal("queue should be empty")
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := NewEngine()
	var order []float64
	evs := make([]Timer, 0, 6)
	for _, at := range []float64{6, 1, 4, 2, 5, 3} {
		at := at
		evs = append(evs, e.Schedule(at, func() { order = append(order, at) }))
	}
	e.Cancel(evs[2]) // cancels the t=4 event
	e.Run()
	want := []float64{1, 2, 3, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past should panic")
		}
	}()
	e.Schedule(1, func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for _, at := range []float64{1, 2, 3, 4, 5} {
		e.Schedule(at, func() { count++ })
	}
	e.RunUntil(3)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Now() != 3 {
		t.Fatalf("now = %v", e.Now())
	}
	e.RunUntil(10)
	if count != 5 || e.Now() != 10 {
		t.Fatalf("count=%d now=%v", count, e.Now())
	}
}

func TestStepsCounter(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	e.Run()
	if e.Steps() != 2 {
		t.Fatalf("Steps = %d", e.Steps())
	}
}

func TestEventTimeMonotoneProperty(t *testing.T) {
	// Property: events always fire in non-decreasing time order no matter
	// the insertion order.
	f := func(raw []float64) bool {
		e := NewEngine()
		var times []float64
		for _, r := range raw {
			at := r
			if at < 0 {
				at = -at
			}
			if at > 1e12 || at != at { // NaN guard
				continue
			}
			e.Schedule(at, func() { times = append(times, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
