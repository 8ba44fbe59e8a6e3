package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// ChromeEvent is one Chrome trace-event (the JSON shape Perfetto and
// chrome://tracing load). Timestamps and durations are microseconds;
// for sim-time tracks we render simulated seconds as microseconds so a
// 1.5 s kernel shows as a 1.5 ms-wide slice under displayTimeUnit "ms".
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"` // flow-event binding id ("s"/"t"/"f" phases)
	BP   string         `json:"bp,omitempty"` // flow binding point ("e" = enclosing slice)
	Args map[string]any `json:"args,omitempty"`
}

// ChromeEvents converts recorded spans to complete ("X") trace events
// on the given process id: one thread track per execution unit (sorted
// unit name → tid), a thread_name metadata event per track, and events
// ordered by (ts, tid, name) so the export is deterministic.
func ChromeEvents(spans []Span, pid int) []ChromeEvent {
	units := Units(spans)
	return ChromeEventsPrefix(spans, units, pid, len(units)+len(spans))
}

// Units returns the distinct execution units of spans, sorted: the
// thread tracks ChromeEvents lays the spans on.
func Units(spans []Span) []string {
	units := make([]string, 0, 8)
	seen := map[string]bool{}
	for _, s := range spans {
		if !seen[s.Unit] {
			seen[s.Unit] = true
			units = append(units, s.Unit)
		}
	}
	sort.Strings(units)
	return units
}

// ChromeEventsPrefix returns the first n events of
// ChromeEvents(spans, pid), where units is Units(spans), and builds only
// those: a consumer with room for part of a trace converts only the
// part it keeps.
func ChromeEventsPrefix(spans []Span, units []string, pid, n int) []ChromeEvent {
	n = min(n, len(units)+len(spans))
	if n <= 0 {
		return nil
	}
	evs := make([]ChromeEvent, 0, n)
	tids := make(map[string]int, len(units))
	for i, u := range units {
		tids[u] = i
		if len(evs) < n {
			evs = append(evs, ChromeEvent{
				Name: "thread_name",
				Ph:   "M",
				PID:  pid,
				TID:  i,
				Args: map[string]any{"name": u},
			})
		}
	}
	if len(evs) == n {
		return evs
	}
	// Order span indices by (ts, tid, name), stably, then convert the
	// head.
	ts := make([]float64, len(spans))
	tid := make([]int, len(spans))
	order := make([]int, len(spans))
	for i, s := range spans {
		ts[i], tid[i], order[i] = s.Start*1e6, tids[s.Unit], i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if ts[i] < ts[j] {
			return true
		}
		if ts[j] < ts[i] {
			return false
		}
		if tid[i] != tid[j] {
			return tid[i] < tid[j]
		}
		return spans[i].Label < spans[j].Label
	})
	for _, i := range order[:n-len(evs)] {
		s := spans[i]
		evs = append(evs, ChromeEvent{
			Name: s.Label,
			Cat:  s.Kind,
			Ph:   "X",
			TS:   ts[i],
			Dur:  (s.End - s.Start) * 1e6,
			PID:  pid,
			TID:  tid[i],
			Args: map[string]any{"node": s.Node, "unit": s.Unit, "flops": s.Flops},
		})
	}
	return evs
}

// WriteChromeTrace writes the spans as a standalone Chrome trace-event
// JSON document (object form, loadable by Perfetto).
func WriteChromeTrace(w io.Writer, spans []Span) error {
	doc := struct {
		TraceEvents     []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{
		TraceEvents:     ChromeEvents(spans, 1),
		DisplayTimeUnit: "ms",
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
