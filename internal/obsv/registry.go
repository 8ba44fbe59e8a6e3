package obsv

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimensions to an instrument. Two registrations with
// the same name and the same label set return the same instrument.
type Labels map[string]string

// DurationBuckets are the default histogram bounds for wall-clock
// latencies, spanning 1µs to 60s in roughly geometric steps.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 2.5e-2, 1e-1, 5e-1, 2.5, 10, 60,
}

// MakespanBuckets are the default histogram bounds for simulated
// makespans (seconds of simulated time, not wall time).
var MakespanBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// Counter is a monotonically-increasing float64. All methods are
// nil-safe and lock-free (CAS on the float's bit pattern).
type Counter struct{ bits atomic.Uint64 }

// Add increases the counter by v (no-op on nil or negative v: counters
// only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloatBits(&c.bits, v)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current total (0 on nil).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a float64 that can go up and down. Nil-safe.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloatBits(&g.bits, v)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloatBits atomically adds v to a float64 stored as bits.
func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Histogram counts observations into fixed cumulative-exposition
// buckets (Prometheus `le` semantics: bucket i counts v <= bounds[i],
// with an implicit +Inf bucket). Nil-safe, lock-free.
type Histogram struct {
	bounds []float64       // sorted upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h != nil {
		h.observe(v)
	}
}

// observe is Observe's non-nil path, kept out of line so the nil check
// inlines into callers.
func (h *Histogram) observe(v float64) {
	// Smallest bound >= v; len(bounds) selects the +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	addFloatBits(&h.sum, v)
	h.count.Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// family is one metric name: help, type, and its labeled children.
type family struct {
	name, help, typ string
	bounds          []float64
	children        map[string]*child
}

// child is one labeled instrument of a family.
type child struct {
	labels string // rendered `k="v",...` signature; "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Instrument handles stay valid for the registry's
// lifetime; registration is idempotent per (name, labels).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Counter registers (or fetches) a counter.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.child(name, help, "counter", nil, labels).c
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.child(name, help, "gauge", nil, labels).g
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time. fn must be safe for concurrent use and must not touch the
// registry (the registry lock is held while it runs).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.child(name, help, "gauge", nil, labels).fn = fn
}

// Histogram registers (or fetches) a histogram with the given bucket
// upper bounds (+Inf implicit). The first registration fixes the
// bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels Labels) *Histogram {
	return r.child(name, help, "histogram", bounds, labels).h
}

func (r *Registry) child(name, help, typ string, bounds []float64, labels Labels) *child {
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		fam = &family{
			name: name, help: help, typ: typ,
			bounds:   append([]float64(nil), bounds...),
			children: map[string]*child{},
		}
		r.families[name] = fam
	}
	if fam.typ != typ {
		panic(fmt.Sprintf("obsv: metric %s already registered as %s, requested as %s",
			name, fam.typ, typ))
	}
	sig := renderLabels(labels)
	ch, ok := fam.children[sig]
	if !ok {
		ch = &child{labels: sig}
		switch typ {
		case "counter":
			ch.c = &Counter{}
		case "gauge":
			ch.g = &Gauge{}
		case "histogram":
			ch.h = newHistogram(fam.bounds)
		}
		fam.children[sig] = ch
	}
	return ch
}

// renderLabels produces the canonical `k="v",...` signature with keys
// sorted, so label-set identity is order-independent.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+`="`+escapeLabel(labels[k])+`"`)
	}
	return strings.Join(parts, ",")
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every family in text exposition format, with
// families and children in sorted order so the output is deterministic
// for a given registry state.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := r.families[name].write(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
		f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
		return err
	}
	sigs := make([]string, 0, len(f.children))
	for sig := range f.children {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		ch := f.children[sig]
		switch {
		case ch.h != nil:
			if err := writeHistogram(w, f.name, sig, ch.h); err != nil {
				return err
			}
		case ch.fn != nil:
			if err := writeSample(w, f.name, "", sig, "", ch.fn()); err != nil {
				return err
			}
		case ch.c != nil:
			if err := writeSample(w, f.name, "", sig, "", ch.c.Value()); err != nil {
				return err
			}
		case ch.g != nil:
			if err := writeSample(w, f.name, "", sig, "", ch.g.Value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSample emits one `name[suffix]{labels} value` line. extra is an
// additional pre-rendered label (the histogram `le`).
func writeSample(w io.Writer, name, suffix, sig, extra string, v float64) error {
	labels := sig
	if extra != "" {
		if labels != "" {
			labels += ","
		}
		labels += extra
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	_, err := fmt.Fprintf(w, "%s%s%s %s\n", name, suffix, labels, formatValue(v))
	return err
}

func writeHistogram(w io.Writer, name, sig string, h *Histogram) error {
	cum := uint64(0)
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := `le="` + formatValue(b) + `"`
		if err := writeSample(w, name, "_bucket", sig, le, float64(cum)); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if err := writeSample(w, name, "_bucket", sig, `le="+Inf"`, float64(cum)); err != nil {
		return err
	}
	if err := writeSample(w, name, "_sum", sig, "", h.Sum()); err != nil {
		return err
	}
	return writeSample(w, name, "_count", sig, "", float64(h.Count()))
}
