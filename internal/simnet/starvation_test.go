package simnet

import (
	"testing"

	"phasetune/internal/des"
)

func TestFluidStarvedFlowRevives(t *testing.T) {
	// Saturate a 1-capacity backbone with many flows: every flow still
	// finishes (no flow is starved forever even when shares round to
	// tiny rates).
	eng := des.NewEngine()
	net := NewFluid(eng, 8, topo(1000, 1, 0))
	done := 0
	for i := 0; i < 4; i++ {
		net.Transfer(i, 7, 0.25, des.Func(func() { done++ }), 0)
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
	if eng.Now() < 1-1e-9 {
		t.Fatalf("completed at %v, backbone should pace to ~1s", eng.Now())
	}
}

func TestFluidSequentialReuse(t *testing.T) {
	// Back-to-back transfers on the same path reuse links cleanly.
	eng := des.NewEngine()
	net := NewFluid(eng, 2, topo(100, 0, 0))
	var t2 float64
	net.Transfer(0, 1, 100, des.Func(func() {
		net.Transfer(0, 1, 100, des.Func(func() { t2 = eng.Now() }), 0)
	}), 0)
	eng.Run()
	if t2 < 2-1e-9 || t2 > 2+1e-9 {
		t.Fatalf("second transfer finished at %v, want 2", t2)
	}
}

func TestFastZeroBytes(t *testing.T) {
	eng := des.NewEngine()
	net := NewFast(eng, 2, topo(100, 0, 0.5))
	var at float64 = -1
	net.Transfer(0, 1, 0, des.Func(func() { at = eng.Now() }), 0)
	eng.Run()
	if at != 0.5 {
		t.Fatalf("zero-byte fast transfer at %v", at)
	}
}

func TestFastLocalTransfer(t *testing.T) {
	eng := des.NewEngine()
	net := NewFast(eng, 2, topo(1, 1, 100))
	var at float64 = -1
	net.Transfer(1, 1, 1e12, des.Func(func() { at = eng.Now() }), 0)
	eng.Run()
	if at < 0 || at > 1e-3 {
		t.Fatalf("local fast transfer took %v", at)
	}
}
