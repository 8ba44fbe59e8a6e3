package engine

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"phasetune/internal/obsv"
)

// shipRecorder is a fake follower: it accepts every replica append and
// records the X-Phasetune-Trace header of each ship.
type shipRecorder struct {
	mu      sync.Mutex
	headers []string
}

func (sr *shipRecorder) server(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.URL.Path, "/v1/replica/") {
			http.NotFound(w, r)
			return
		}
		sr.mu.Lock()
		sr.headers = append(sr.headers, r.Header.Get(obsv.TraceHeader))
		sr.mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func (sr *shipRecorder) last(t *testing.T) string {
	t.Helper()
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if len(sr.headers) == 0 {
		t.Fatal("no replica ship reached the follower")
	}
	return sr.headers[len(sr.headers)-1]
}

func replicatedEngine(t *testing.T, tel *obsv.Telemetry, follower string) (*Engine, string) {
	t.Helper()
	e := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir(), Telemetry: tel})
	t.Cleanup(func() { _ = e.Close() })
	e.SetReplicaPlanner(func(string) (string, bool) { return follower, true })
	s, err := e.CreateSession(SessionConfig{
		ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 7, Tiles: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, s.id
}

// TestReplicaShipTraceHeader pins the tracing contract of the ship
// path: an untraced commit ships with no X-Phasetune-Trace header at
// all, and a traced one ships a hop context that keeps the inbound
// trace id but carries a freshly minted child span id (never the
// caller's own span id — the follower's root must parent to the hop).
func TestReplicaShipTraceHeader(t *testing.T) {
	hexPair := regexp.MustCompile(`^[0-9a-f]{16}-[0-9a-f]{16}$`)

	// Telemetry off: the hop must not invent a header.
	var plain shipRecorder
	e, id := replicatedEngine(t, nil, plain.server(t).URL)
	if _, _, err := e.StepIdem(context.Background(), id, ""); err != nil {
		t.Fatal(err)
	}
	if h := plain.last(t); h != "" {
		t.Fatalf("untraced ship sent header %q, want none", h)
	}

	// Telemetry on, request traced via an inbound link.
	var traced shipRecorder
	tel := obsv.NewTelemetry(fakeNanos())
	e2, id2 := replicatedEngine(t, tel, traced.server(t).URL)
	link, ok := obsv.ParseTraceContext("00000000000000ab-00000000000000cd")
	if !ok {
		t.Fatal("test link failed to parse")
	}
	sc, end := tel.Trace.StartRequestLink(id2, "POST step", link)
	if _, _, err := e2.StepIdem(obsv.ContextWith(context.Background(), sc), id2, ""); err != nil {
		t.Fatal(err)
	}
	end()
	h := traced.last(t)
	if !hexPair.MatchString(h) {
		t.Fatalf("traced ship sent header %q, want <16hex>-<16hex>", h)
	}
	if !strings.HasPrefix(h, link.TraceID+"-") {
		t.Fatalf("traced ship dropped the request's trace id: %q", h)
	}
	if strings.HasSuffix(h, "-"+link.SpanID) {
		t.Fatalf("traced ship reused the inbound span id instead of minting a hop span: %q", h)
	}
	evs, ok := tel.Trace.TraceEvents(link.TraceID)
	if !ok || len(evs) == 0 {
		t.Fatal("owner recorded no spans under the inbound trace id")
	}
	var sawShip bool
	for _, ev := range evs {
		if ev.Name == "replica.ship" {
			sawShip = true
			if ev.Args["span"] != h[len(link.TraceID)+1:] {
				t.Fatalf("ship span id %v does not match the shipped header %q", ev.Args["span"], h)
			}
		}
	}
	if !sawShip {
		t.Fatal("trace slice lacks the replica.ship hop span")
	}
}

// TestPromoteReplicaNilTelemetry: promotion emits a session.promoted
// event through Telemetry.Emit, which must be nil-receiver-safe — a
// follower running without telemetry still promotes cleanly.
func TestPromoteReplicaNilTelemetry(t *testing.T) {
	follower := NewWithOptions(Options{Workers: 1, JournalDir: t.TempDir()})
	t.Cleanup(func() { _ = follower.Close() })
	fsrv := httptest.NewServer(NewServer(follower))
	t.Cleanup(fsrv.Close)

	owner, id := replicatedEngine(t, nil, fsrv.URL)
	for i := 0; i < 3; i++ {
		if _, _, err := owner.StepIdem(context.Background(), id, ""); err != nil {
			t.Fatal(err)
		}
	}

	promoted, err := follower.PromoteReplica(context.Background(), id, 2)
	if err != nil {
		t.Fatalf("promotion without telemetry: %v", err)
	}
	if promoted.ID != id || promoted.Gen < 2 || promoted.Iterations != 3 {
		t.Fatalf("promoted %+v, want id %s gen>=2 iterations 3", promoted, id)
	}
}

// TestObservationLogTraceInvariant is the tracing twin of
// TestObservationLogTelemetryInvariant: threading a cross-process
// trace link through the request path (which adds hop spans around
// every replica-less step) must not perturb a single observed bit,
// at one worker and at four.
func TestObservationLogTraceInvariant(t *testing.T) {
	link, ok := obsv.ParseTraceContext("00000000000000ab-00000000000000cd")
	if !ok {
		t.Fatal("test link failed to parse")
	}
	run := func(workers int, traced bool) []byte {
		tel := obsv.NewTelemetry(fakeNanos())
		e := NewWithOptions(Options{Workers: workers, Telemetry: tel})
		s, err := e.CreateSession(SessionConfig{
			ScenarioKey: "b", Strategy: "GP-discontinuous", Seed: 1234, Tiles: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		step := func(batch int) {
			ctx := context.Background()
			if traced {
				sc, end := tel.Trace.StartRequestLink(s.id, "POST step", link)
				defer end()
				ctx = obsv.ContextWith(ctx, sc)
			}
			if batch > 0 {
				_, _, err = e.BatchStepIdem(ctx, s.id, batch, "")
			} else {
				_, _, err = e.StepIdem(ctx, s.id, "")
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 2; i++ {
			step(0)
		}
		for b := 0; b < 3; b++ {
			step(4)
		}
		res, err := e.Result(s.id)
		if err != nil {
			t.Fatal(err)
		}
		if traced {
			if evs, ok := tel.Trace.TraceEvents(link.TraceID); !ok || len(evs) == 0 {
				t.Fatal("traced run recorded no spans under the link's trace id")
			}
		}
		return observationLog(t, res)
	}

	for _, workers := range []int{1, 4} {
		untraced := run(workers, false)
		traced := run(workers, true)
		if !bytes.Equal(untraced, traced) {
			t.Fatalf("observation log differs with tracing at workers=%d:\nuntraced:\n%s\ntraced:\n%s",
				workers, untraced, traced)
		}
	}
}
