// Package trace records per-task execution spans from the simulated
// runtime and renders StarVZ-style views: aggregated per-node resource
// utilization over time, split by application phase — the presentation
// of the paper's Figure 1.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"phasetune/internal/taskrt"
)

// Span is one executed task occurrence.
type Span struct {
	Label string
	Kind  string
	Node  int
	Unit  string
	Flops float64
	Start float64
	End   float64
}

// UnitClass reduces a unit name like "n3.gpu1" or "n0.cpu12" to its class
// ("gpu" or "cpu") for performance-model calibration.
func UnitClass(unit string) string {
	if strings.Contains(unit, ".gpu") {
		return "gpu"
	}
	if strings.Contains(unit, ".cpu") {
		return "cpu"
	}
	return unit
}

// Recorder implements taskrt.Observer and accumulates spans.
type Recorder struct {
	spans []Span
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// TaskStarted implements taskrt.Observer (spans are recorded at finish).
func (r *Recorder) TaskStarted(*taskrt.Task, string, float64) {}

// TaskFinished implements taskrt.Observer.
func (r *Recorder) TaskFinished(t *taskrt.Task, unit string, at float64) {
	r.spans = append(r.spans, Span{
		Label: t.Label, Kind: t.Kind, Node: t.Node, Unit: unit,
		Flops: t.Flops, Start: t.Started(), End: at,
	})
}

// Spans returns the recorded spans (shared slice; treat as read-only).
func (r *Recorder) Spans() []Span { return r.spans }

// Reset empties the recorder, keeping its storage for the next run.
func (r *Recorder) Reset() { r.spans = r.spans[:0] }

// Makespan returns the last recorded end time.
func (r *Recorder) Makespan() float64 {
	m := 0.0
	for _, s := range r.spans {
		if s.End > m {
			m = s.End
		}
	}
	return m
}

// PhaseSpan returns the first start and last end of a phase kind, with
// ok=false when the phase never ran.
func (r *Recorder) PhaseSpan(kind string) (start, end float64, ok bool) {
	first := true
	for _, s := range r.spans {
		if s.Kind != kind {
			continue
		}
		if first || s.Start < start {
			start = s.Start
		}
		if first || s.End > end {
			end = s.End
		}
		first = false
		ok = true
	}
	return start, end, ok
}

// BusyTime returns the total busy time of a phase kind on one node.
func (r *Recorder) BusyTime(kind string, node int) float64 {
	total := 0.0
	for _, s := range r.spans {
		if s.Kind == kind && s.Node == node {
			total += s.End - s.Start
		}
	}
	return total
}

// Utilization bins the busy time of a phase kind on a node over
// [0, horizon) into bins of the given width, returning per-bin utilization
// in [0, u] where u is the node's number of units observed.
func (r *Recorder) Utilization(kind string, node int, horizon float64, bins int) []float64 {
	out := make([]float64, bins)
	if horizon <= 0 || bins <= 0 {
		return out
	}
	width := horizon / float64(bins)
	for _, s := range r.spans {
		if s.Kind != kind || s.Node != node {
			continue
		}
		b0 := int(s.Start / width)
		b1 := int(s.End / width)
		for b := b0; b <= b1 && b < bins; b++ {
			if b < 0 {
				continue
			}
			lo := float64(b) * width
			hi := lo + width
			overlap := minF(s.End, hi) - maxF(s.Start, lo)
			if overlap > 0 {
				out[b] += overlap / width
			}
		}
	}
	return out
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Gantt renders an ASCII utilization chart: one row per node, one column
// per time bin, with the dominant phase's symbol in each bin. Symbols:
// 'g' generation, '#' factorization kernels, '.' other phases, ' ' idle.
func (r *Recorder) Gantt(nodes, width int) string {
	horizon := r.Makespan()
	if horizon <= 0 || width <= 0 {
		return ""
	}
	kinds := map[string]byte{
		"gen": 'g', "potrf": '#', "trsm": '#', "syrk": '#', "gemm": '#',
		"solve": '.', "det": '.', "dot": '.',
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "time 0 .. %.2fs, %d bins\n", horizon, width)
	for node := 0; node < nodes; node++ {
		row := make([]byte, width)
		best := make([]float64, width)
		for i := range row {
			row[i] = ' '
		}
		seen := map[string][]float64{}
		for kind := range kinds {
			seen[kind] = r.Utilization(kind, node, horizon, width)
		}
		// Deterministic kind order for stable ties.
		kindNames := make([]string, 0, len(kinds))
		for k := range kinds {
			kindNames = append(kindNames, k)
		}
		sort.Strings(kindNames)
		for _, kind := range kindNames {
			u := seen[kind]
			for i, v := range u {
				if v > best[i] && v > 0.01 {
					best[i] = v
					row[i] = kinds[kind]
				}
			}
		}
		fmt.Fprintf(&sb, "node %3d |%s|\n", node, string(row))
	}
	return sb.String()
}
