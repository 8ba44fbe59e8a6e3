package engine

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// observationLog serializes a session trajectory to exact bytes: the
// action sequence plus the IEEE-754 bit patterns of every observed
// duration. Two logs are equal iff the trajectories are bit-for-bit
// identical — no formatting shortcuts, no rounding.
func observationLog(t *testing.T, res SessionResult) []byte {
	t.Helper()
	var b bytes.Buffer
	for i, a := range res.Actions {
		fmt.Fprintf(&b, "%d:%d:%016x\n", i, a, math.Float64bits(res.Durations[i]))
	}
	fmt.Fprintf(&b, "total:%016x\n", math.Float64bits(res.Total))
	return b.Bytes()
}

// TestObservationLogByteIdentical is the executable witness for what
// the determinism analyzer protects: a fixed engine session, replayed
// under different GOMAXPROCS and worker counts, must produce
// byte-identical observation logs. CI runs this under -race, so a
// scheduling-order dependence shows up either as a log diff here or as
// a race report there.
func TestObservationLogByteIdentical(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	run := func(procs, workers int) []byte {
		runtime.GOMAXPROCS(procs)
		e := New(workers)
		s, err := e.CreateSession(SessionConfig{
			ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 1234, Tiles: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Mix sequential steps and speculative batches so both engine
		// paths are exercised.
		for i := 0; i < 2; i++ {
			if _, _, err := e.StepIdem(context.Background(), s.id, ""); err != nil {
				t.Fatal(err)
			}
		}
		for b := 0; b < 3; b++ {
			if _, _, err := e.BatchStepIdem(context.Background(), s.id, 4, ""); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Result(s.id)
		if err != nil {
			t.Fatal(err)
		}
		return observationLog(t, res)
	}

	ref := run(1, 1)
	if len(ref) == 0 {
		t.Fatal("empty observation log")
	}
	for _, cfg := range []struct{ procs, workers int }{
		{1, 8}, {2, 4}, {8, 8},
	} {
		got := run(cfg.procs, cfg.workers)
		if !bytes.Equal(ref, got) {
			t.Fatalf("observation log differs at GOMAXPROCS=%d workers=%d:\nref:\n%s\ngot:\n%s",
				cfg.procs, cfg.workers, ref, got)
		}
	}
}
