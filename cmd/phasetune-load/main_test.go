package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// TestViolations holds each gate to its own message: a clean summary
// passes, and each single fault fails the run naming what went wrong.
func TestViolations(t *testing.T) {
	const slo = 2 * time.Second
	clean := func() *summary {
		return &summary{
			launched: 10, completed: 10, ops: 60, p50: 5 * time.Millisecond, p99: time.Second,
			determinism: &determinismReport{checked: 2},
			failover:    &failoverReport{shard: "w1", restarted: true, recovered: true, took: time.Second},
		}
	}
	cases := []struct {
		name  string
		fault func(s *summary)
		want  string // "" means the run passes
	}{
		{"clean", func(*summary) {}, ""},
		{"canary recovered", func(s *summary) {
			s.failover = &failoverReport{shard: "w1", recovered: true, took: time.Second, probes: 3}
		}, ""},
		{"failed op", func(s *summary) { s.opErrors = 1 }, "1 of 60 ops failed"},
		{"p99 over slo", func(s *summary) { s.p99 = slo + time.Millisecond }, "p99 2001.0ms > -slo-p99 2s"},
		{"determinism mismatch", func(s *summary) {
			s.determinism.mismatches = []string{"session 1: duration[0] differs"}
		}, "determinism: session 1: duration[0] differs"},
		{"canary never recovered", func(s *summary) {
			s.failover = &failoverReport{shard: "w1", probes: 40}
		}, "canary session of killed shard w1 never recovered"},
		{"failed restart", func(s *summary) {
			s.failover = &failoverReport{shard: "w1", restarted: true, err: errors.New("router probed it down")}
		}, "restart of killed shard w1 failed: router probed it down"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := clean()
			tc.fault(s)
			got := violations(s, slo)
			switch {
			case tc.want == "" && len(got) > 0:
				t.Fatalf("clean run failed: %q", got)
			case tc.want != "" && (len(got) != 1 || got[0] != tc.want):
				t.Fatalf("violations = %q, want exactly %q", got, tc.want)
			}
		})
	}
	if got := violations(clean(), 0); len(got) > 0 {
		t.Fatalf("-slo-p99 0 must disable the latency gate, got %q", got)
	}
}

// TestSummarize checks the tally the gates read: failed ops counted by
// kind, latency percentiles over successful ops only, and error samples
// deduplicated.
func TestSummarize(t *testing.T) {
	col := &collector{}
	for i := 1; i <= 100; i++ {
		col.add("step", time.Duration(i)*time.Millisecond, nil)
	}
	boom := errors.New("boom")
	col.add("create", time.Hour, boom)
	col.add("create", time.Hour, boom)
	s := col.summarize()
	if s.ops != 102 || s.opErrors != 2 || s.kindErrors["create"] != 2 || s.byKind["step"] != 100 {
		t.Fatalf("counts: ops %d, errors %d, by kind %v, errors by kind %v", s.ops, s.opErrors, s.byKind, s.kindErrors)
	}
	if s.p50 != 50*time.Millisecond || s.p99 != 99*time.Millisecond || s.max != 100*time.Millisecond {
		t.Fatalf("latency p50 %v p99 %v max %v, want 50ms 99ms 100ms", s.p50, s.p99, s.max)
	}
	if len(s.errSamples) != 1 || !strings.Contains(s.errSamples[0], "create: boom") {
		t.Fatalf("error samples %q, want one create sample", s.errSamples)
	}
}
