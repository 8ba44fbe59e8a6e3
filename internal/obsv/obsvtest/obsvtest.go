// Package obsvtest validates telemetry output formats in tests: a
// Prometheus text-exposition parser and a Chrome trace-event checker.
// It lives outside the hot path and is imported only from _test files
// and tooling.
package obsvtest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// WriteArtifact copies data to dir/name, creating dir, so a test can
// hand a sample it validated to CI for upload. An empty dir writes
// nothing.
func WriteArtifact(dir, name string, data []byte) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// Sample is one exposition line: a sample name (which may carry a
// _bucket/_sum/_count suffix), its labels, and the value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family groups the samples of one metric name under its TYPE/HELP.
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
}

// ParsePrometheus parses text exposition format strictly enough to
// catch malformed output: every sample must belong to a declared
// family (directly or via histogram suffixes), labels must be
// well-formed quoted strings, values must parse as floats.
func ParsePrometheus(data []byte) (map[string]*Family, error) {
	fams := map[string]*Family{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, _ := strings.Cut(rest, " ")
			if name == "" {
				return nil, fmt.Errorf("line %d: HELP without metric name", lineNo)
			}
			fam := familyFor(fams, name)
			fam.Help = help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return nil, fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[1])
			}
			fam := familyFor(fams, fields[0])
			if fam.Type != "" && fam.Type != fields[1] {
				return nil, fmt.Errorf("line %d: %s re-typed %s -> %s", lineNo, fields[0], fam.Type, fields[1])
			}
			fam.Type = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // other comments are legal
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		famName := baseName(fams, s.Name)
		if famName == "" {
			return nil, fmt.Errorf("line %d: sample %s has no declared family", lineNo, s.Name)
		}
		fam := fams[famName]
		fam.Samples = append(fam.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, fam := range fams {
		if fam.Type == "" {
			return nil, fmt.Errorf("family %s has no TYPE line", name)
		}
		if len(fam.Samples) == 0 {
			return nil, fmt.Errorf("family %s declared but has no samples", name)
		}
		if fam.Type == "histogram" {
			if err := checkHistogram(fam); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

func familyFor(fams map[string]*Family, name string) *Family {
	fam, ok := fams[name]
	if !ok {
		fam = &Family{Name: name}
		fams[name] = fam
	}
	return fam
}

// baseName maps a sample name to its declaring family, resolving
// histogram suffixes.
func baseName(fams map[string]*Family, sample string) string {
	if _, ok := fams[sample]; ok {
		return sample
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(sample, suffix)
		if base == sample {
			continue
		}
		if fam, ok := fams[base]; ok && fam.Type == "histogram" {
			return base
		}
	}
	return ""
}

// parseSample parses `name{k="v",...} value` with a character scanner —
// label values may contain '{', '}', ',' and escaped quotes, so
// splitting on punctuation is not an option.
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' {
		i++
	}
	s.Name = line[:i]
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name in %q", line)
	}
	if i < len(line) && line[i] == '{' {
		i++
		for {
			for i < len(line) && line[i] == ' ' {
				i++
			}
			if i < len(line) && line[i] == '}' {
				i++
				break
			}
			start := i
			for i < len(line) && line[i] != '=' {
				i++
			}
			if i >= len(line) {
				return s, fmt.Errorf("unterminated label in %q", line)
			}
			key := strings.TrimSpace(line[start:i])
			i++ // '='
			if i >= len(line) || line[i] != '"' {
				return s, fmt.Errorf("label %s: value not quoted in %q", key, line)
			}
			i++
			var val strings.Builder
			for i < len(line) && line[i] != '"' {
				if line[i] == '\\' && i+1 < len(line) {
					i++
					switch line[i] {
					case 'n':
						val.WriteByte('\n')
					case '\\':
						val.WriteByte('\\')
					case '"':
						val.WriteByte('"')
					default:
						return s, fmt.Errorf("label %s: bad escape \\%c", key, line[i])
					}
				} else {
					val.WriteByte(line[i])
				}
				i++
			}
			if i >= len(line) {
				return s, fmt.Errorf("label %s: unterminated value in %q", key, line)
			}
			i++ // closing quote
			s.Labels[key] = val.String()
			if i < len(line) && line[i] == ',' {
				i++
			}
		}
	}
	rest := strings.TrimSpace(line[i:])
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional timestamp
		return s, fmt.Errorf("malformed value in %q", line)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, fmt.Errorf("value %q: %w", fields[0], err)
	}
	s.Value = v
	return s, nil
}

func parseValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	return strconv.ParseFloat(f, 64)
}

// checkHistogram verifies per-label-set bucket monotonicity, a +Inf
// bucket, and count == +Inf bucket.
func checkHistogram(fam *Family) error {
	type series struct {
		lastLE   float64
		lastCum  float64
		sawInf   bool
		infCum   float64
		count    float64
		sawCount bool
	}
	bySig := map[string]*series{}
	sig := func(labels map[string]string, dropLE bool) string {
		parts := make([]string, 0, len(labels))
		for k, v := range labels {
			if dropLE && k == "le" {
				continue
			}
			parts = append(parts, k+"="+v)
		}
		// Order-independent signature; content equality is what matters.
		for i := 1; i < len(parts); i++ {
			for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
				parts[j], parts[j-1] = parts[j-1], parts[j]
			}
		}
		return strings.Join(parts, ",")
	}
	get := func(k string) *series {
		sr, ok := bySig[k]
		if !ok {
			sr = &series{lastLE: -1e308, lastCum: -1}
			bySig[k] = sr
		}
		return sr
	}
	for _, s := range fam.Samples {
		switch {
		case strings.HasSuffix(s.Name, "_bucket"):
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("%s: bucket without le label", fam.Name)
			}
			lev, err := parseValue(le)
			if err != nil {
				return fmt.Errorf("%s: bad le %q: %w", fam.Name, le, err)
			}
			sr := get(sig(s.Labels, true))
			if lev <= sr.lastLE {
				return fmt.Errorf("%s: le %q out of order", fam.Name, le)
			}
			if s.Value < sr.lastCum {
				return fmt.Errorf("%s: bucket counts not cumulative at le=%q", fam.Name, le)
			}
			sr.lastLE, sr.lastCum = lev, s.Value
			if le == "+Inf" {
				sr.sawInf, sr.infCum = true, s.Value
			}
		case strings.HasSuffix(s.Name, "_count"):
			sr := get(sig(s.Labels, true))
			sr.count, sr.sawCount = s.Value, true
		}
	}
	for k, sr := range bySig {
		if !sr.sawInf {
			return fmt.Errorf("%s{%s}: no +Inf bucket", fam.Name, k)
		}
		if sr.sawCount && sr.count != sr.infCum {
			return fmt.Errorf("%s{%s}: count %v != +Inf bucket %v", fam.Name, k, sr.count, sr.infCum)
		}
	}
	return nil
}

// chromeEvent mirrors the trace-event fields the validator needs.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

// ValidateChromeTrace checks that data is valid Chrome trace-event
// JSON — either the object form {"traceEvents": [...]} or a bare
// array — with known phase types, non-negative durations on complete
// events, matched B/E pairs per (pid, tid), flow events ("s"/"t"/"f")
// carrying binding ids with every flow id both started and finished,
// and non-decreasing timestamps among non-metadata events. Returns the
// event count.
func ValidateChromeTrace(data []byte) (int, error) {
	events, err := decodeChromeEvents(data)
	if err != nil {
		return 0, err
	}
	type track struct{ pid, tid int }
	open := map[track]int{}
	lastTS := map[track]float64{}
	flowStart := map[string]int{}
	flowFinish := map[string]int{}
	for i, ev := range events {
		tr := track{ev.PID, ev.TID}
		switch ev.Ph {
		case "M":
			continue // metadata carries no timestamp semantics
		case "X":
			if ev.Dur < 0 {
				return 0, fmt.Errorf("event %d (%s): negative dur %v", i, ev.Name, ev.Dur)
			}
		case "B":
			open[tr]++
		case "E":
			open[tr]--
			if open[tr] < 0 {
				return 0, fmt.Errorf("event %d (%s): E without matching B on pid=%d tid=%d", i, ev.Name, ev.PID, ev.TID)
			}
		case "s", "t", "f":
			if ev.ID == "" {
				return 0, fmt.Errorf("event %d (%s): flow %q without binding id", i, ev.Name, ev.Ph)
			}
			if ev.Ph == "s" {
				flowStart[ev.ID]++
			} else if ev.Ph == "f" {
				flowFinish[ev.ID]++
			}
		default:
			return 0, fmt.Errorf("event %d (%s): unsupported phase %q", i, ev.Name, ev.Ph)
		}
		if prev, ok := lastTS[tr]; ok && ev.TS < prev {
			return 0, fmt.Errorf("event %d (%s): ts %v before %v on pid=%d tid=%d", i, ev.Name, ev.TS, prev, ev.PID, ev.TID)
		}
		lastTS[tr] = ev.TS
	}
	for tr, n := range open {
		if n != 0 {
			return 0, fmt.Errorf("pid=%d tid=%d: %d unclosed B events", tr.pid, tr.tid, n)
		}
	}
	for id := range flowStart {
		if flowFinish[id] == 0 {
			return 0, fmt.Errorf("flow %s: started but never finished", id)
		}
	}
	for id := range flowFinish {
		if flowStart[id] == 0 {
			return 0, fmt.Errorf("flow %s: finished but never started", id)
		}
	}
	return len(events), nil
}

func decodeChromeEvents(data []byte) ([]chromeEvent, error) {
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	var events []chromeEvent
	if err := json.Unmarshal(data, &doc); err == nil && doc.TraceEvents != nil {
		events = doc.TraceEvents
	} else if err := json.Unmarshal(data, &events); err != nil {
		return nil, fmt.Errorf("not trace-event JSON: %w", err)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("empty trace")
	}
	return events, nil
}

// ValidateFleetTrace checks a stitched fleet trace: a valid Chrome
// trace whose spans come from at least minProcs distinct process lanes
// (the stitcher places process k at pid range [k*1000, (k+1)*1000)),
// all linked by a single fleet trace id, with at least one
// cross-process flow link. Returns the number of distinct processes
// contributing spans.
func ValidateFleetTrace(data []byte, minProcs int) (int, error) {
	if _, err := ValidateChromeTrace(data); err != nil {
		return 0, err
	}
	events, err := decodeChromeEvents(data)
	if err != nil {
		return 0, err
	}
	procs := map[int]bool{}
	traceIDs := map[string]bool{}
	flows := 0
	for _, ev := range events {
		if ev.Ph == "M" {
			continue
		}
		procs[ev.PID/1000] = true
		if ev.Ph == "s" {
			flows++
		}
		if id, ok := ev.Args["trace"].(string); ok {
			traceIDs[id] = true
		}
	}
	if len(traceIDs) != 1 {
		return 0, fmt.Errorf("fleet trace carries %d trace ids, want exactly 1", len(traceIDs))
	}
	if flows == 0 {
		return 0, fmt.Errorf("fleet trace has no cross-process flow links")
	}
	if len(procs) < minProcs {
		return 0, fmt.Errorf("fleet trace spans %d processes, want >= %d", len(procs), minProcs)
	}
	return len(procs), nil
}
