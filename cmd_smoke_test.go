package phasetune_test

import (
	"os/exec"
	"strings"
	"testing"
)

// runTool builds and runs a command of this module with `go run`,
// returning combined output. These smoke tests guard the CLI surface
// (flag wiring, output shape) at tiny problem sizes.
func runTool(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run"}, args...)...)
	cmd.Dir = "."
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCmdReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/phasetune-report", "table2")
	if !strings.Contains(out, "Chifflot") {
		t.Fatalf("table2 output:\n%s", out)
	}
	out = runTool(t, "./cmd/phasetune-report", "fig3")
	if !strings.Contains(out, "95%") {
		t.Fatalf("fig3 output:\n%s", out)
	}
}

func TestCmdCurvesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/phasetune-curves", "-scenarios", "b", "-tiles", "8")
	if !strings.Contains(out, "best:") || !strings.Contains(out, "G5K 2L-6M-6S") {
		t.Fatalf("curves output:\n%s", out)
	}
}

func TestCmdTuneSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/phasetune-tune",
		"-scenario", "b", "-tiles", "8", "-iters", "6", "-strategy", "DC")
	if !strings.Contains(out, "converged choice:") {
		t.Fatalf("tune output:\n%s", out)
	}
}

func TestCmdFaultsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/phasetune-faults",
		"-scenario", "b", "-tiles", "8", "-iters", "12",
		"-fault", "crash@5:n0", "-compare")
	for _, want := range []string{
		"node 0 crashes", "epoch 1, 13/14 nodes alive",
		"reset at observation 5 (platform)", "post-fault steady state",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("faults output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdCompareSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runTool(t, "./cmd/phasetune-compare",
		"-scenarios", "b", "-tiles", "8", "-iters", "10", "-reps", "2")
	if !strings.Contains(out, "GP-discontinuous") {
		t.Fatalf("compare output:\n%s", out)
	}
}
