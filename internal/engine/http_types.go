package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"phasetune/internal/harness"
	"phasetune/internal/platform"
)

type createSessionRequest struct {
	ID       string `json:"id"`       // optional client-assigned id (clients mint these; the router mints one when absent)
	Scenario string `json:"scenario"` // paper key a..p
	Strategy string `json:"strategy"` // harness.NewStrategy name
	Seed     int64  `json:"seed"`
	Tiles    int    `json:"tiles"`
	Exact    bool   `json:"exact"`
	GenNodes int    `json:"gen_nodes"`
}

type createSessionResponse struct {
	ID       string `json:"id"`
	Scenario string `json:"scenario"`
	Strategy string `json:"strategy"`
	Nodes    int    `json:"nodes"`
	MinNodes int    `json:"min_nodes"`
	Groups   []int  `json:"groups"`
	Seed     int64  `json:"seed"`
}

type batchStepRequest struct {
	K int `json:"k"`
}

// cachePeekResponse answers a shard peer's cache probe. Value is a
// pointer so a miss omits the field entirely and a hit serializes the
// float64 with Go's shortest round-trip representation — the peer
// parses back the exact same bits, which is what lets a peer-served
// evaluation keep observation logs byte-identical.
type cachePeekResponse struct {
	Found bool     `json:"found"`
	Value *float64 `json:"value,omitempty"`
}

type batchStepResponse struct {
	Steps []StepResult `json:"steps"`
}

type sweepRequest struct {
	Scenario string  `json:"scenario"`
	Tiles    int     `json:"tiles"`
	Exact    bool    `json:"exact"`
	NoiseSD  float64 `json:"noise_sd"`
	Reps     int     `json:"reps"`
	Seed     int64   `json:"seed"`
}

// fingerprint is the sweep request's idempotency shape: reusing a key
// with a different fingerprint is a conflict, not a replay.
func (r sweepRequest) fingerprint() string {
	return fmt.Sprintf("%s|%d|%t|%x|%d|%d",
		r.Scenario, r.Tiles, r.Exact, math.Float64bits(r.NoiseSD), r.Reps, r.Seed)
}

func platformScenario(key string) (platform.Scenario, bool) {
	return platform.ScenarioByKey(key)
}

func simOptions(req sweepRequest) harness.SimOptions {
	return harness.SimOptions{Tiles: req.Tiles, Exact: req.Exact}
}

// statusFor maps engine errors onto HTTP statuses by their kind: a
// missing session or an unknown name is 404, a malformed request 400, a
// conflicting repeat or a fenced-out session 409; timeouts, shutdown
// and failed-closed sessions surface as gateway or availability
// statuses, and everything else is a server-side failure.
func statusFor(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, ErrClosed), errors.Is(err, ErrFailedClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrIdemConflict), errors.Is(err, ErrStaleGeneration), errors.Is(err, ErrReplicaGap):
		return http.StatusConflict
	case errors.Is(err, ErrNoSession), errors.Is(err, ErrUnknownName):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// replicaMaxBodyBytes bounds a replica-append batch. A full resync
// carries a session's entire op history, so the cap sits well above the
// normal request-body limit.
const replicaMaxBodyBytes = int64(16 << 20)

// replicaStatusFor maps replication errors onto HTTP statuses. The two
// refusals are load-bearing protocol answers: 403 tells the shipper it
// has been deposed (fail closed), 409 tells it the replica needs a full
// resync (retry from the create record).
func replicaStatusFor(err error) int {
	switch {
	case errors.Is(err, ErrStaleGeneration):
		return http.StatusForbidden
	case errors.Is(err, ErrReplicaGap):
		return http.StatusConflict
	case errors.Is(err, ErrNoReplica):
		return http.StatusNotFound
	}
	return statusFor(err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
