package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"phasetune/internal/platform"
	"phasetune/internal/taskrt"
)

// ScenarioFingerprint returns a short, stable identifier of the
// deterministic simulation a (scenario, options) pair defines: two equal
// fingerprints mean SimulateIteration returns the same makespan for
// every action. It folds in everything the DES result depends on — the
// workload and the tile count actually simulated, the per-node classes
// in platform order, the network topology and the simulation options —
// and nothing it does not (seeds, observers, fault plans). The engine's
// shared evaluation cache keys on it so distinct sessions tuning the
// same system share one memo.
func ScenarioFingerprint(sc platform.Scenario, opts SimOptions) string {
	// Accumulate in a never-fail buffer and hash once: fmt.Fprintf to a
	// hash.Hash would silently discard the (unreachable) write error.
	var b bytes.Buffer
	fmt.Fprintf(&b, "wl=%s/%d/%d;tiles=%d;min=%d;",
		sc.Workload.Name, sc.Workload.MatrixN, sc.Workload.TileSize,
		opts.tiles(sc), sc.MinNodes)
	fmt.Fprintf(&b, "exact=%t;gen=%d;", opts.Exact, opts.GenNodes)
	net := sc.Platform.Network
	fmt.Fprintf(&b, "net=%g/%g/%g;",
		net.NICBandwidth, net.BackboneBandwidth, net.Latency)
	for _, n := range sc.Platform.Nodes {
		c := n.Class
		fmt.Fprintf(&b, "node=%s/%g/%d/%g/%d;",
			c.Machine, c.CPUSpeed, c.Cores, c.GPUSpeed, c.NumGPUs)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])[:16]
}

// Evaluator is the reentrant simulation entry point used by concurrent
// callers (the engine's worker pool): one immutable (scenario, options)
// pair plus its precomputed fingerprint. Evaluate may be called from any
// number of goroutines at once — SimulateIteration builds a fresh DES
// engine, network and runtime per call and shares only immutable graphs —
// provided Opts.Observer is nil (an observer would be shared across
// concurrent runs). Callers that want per-run spans use
// EvaluateObserved, which attaches a private observer to a copy of the
// options.
type Evaluator struct {
	Scenario platform.Scenario
	Opts     SimOptions
	fp       string
}

// NewEvaluator builds an evaluator and precomputes its fingerprint.
func NewEvaluator(sc platform.Scenario, opts SimOptions) *Evaluator {
	return &Evaluator{Scenario: sc, Opts: opts, fp: ScenarioFingerprint(sc, opts)}
}

// Fingerprint returns the precomputed scenario fingerprint.
func (e *Evaluator) Fingerprint() string { return e.fp }

// Evaluate runs one deterministic iteration at nFact factorization
// nodes. Safe for concurrent use.
func (e *Evaluator) Evaluate(nFact int) (float64, error) {
	return SimulateIteration(e.Scenario, nFact, e.Opts)
}

// EvaluateObserved is Evaluate with a per-call task observer (span
// recording). The evaluator's own options are copied, so concurrent
// calls stay reentrant — each run has its private observer and the
// makespan is bit-identical to Evaluate's (observers only record).
func (e *Evaluator) EvaluateObserved(nFact int, obs taskrt.Observer) (float64, error) {
	opts := e.Opts
	opts.Observer = obs
	return SimulateIteration(e.Scenario, nFact, opts)
}

// Actions returns the feasible action range [MinNodes, N] of the
// evaluator's scenario.
func (e *Evaluator) Actions() []int {
	minN := e.Scenario.MinNodes
	if minN < 1 {
		minN = 1
	}
	n := e.Scenario.Platform.N()
	out := make([]int, 0, n-minN+1)
	for a := minN; a <= n; a++ {
		out = append(out, a)
	}
	return out
}
