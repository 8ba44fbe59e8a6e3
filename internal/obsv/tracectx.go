package obsv

import "strings"

// Cross-process trace context. A traced request carries a W3C
// traceparent-style pair of identifiers — a fleet-wide trace id minted
// at the first hop and the sender's span id — in the X-Phasetune-Trace
// header:
//
//	X-Phasetune-Trace: <16 hex trace-id>-<16 hex span-id>
//
// Every hop that forwards work (router proxy, replica journal shipping,
// peer-cache peeks, client retries) mints a fresh child span id for the
// outgoing call and sends it as the pair's span id; the receiving
// process opens its root span with that id as parent. Each per-process
// span event records its trace/span/parent ids in its args, so the
// fleet stitcher can connect spans across processes with flow events.
// The first hop decides whether a request is traced: one that arrives
// without a context runs untraced on every process it reaches.

// TraceHeader is the HTTP header carrying the trace context.
const TraceHeader = "X-Phasetune-Trace"

// TraceContext is the cross-process identity of one traced request:
// the fleet-wide trace id plus the sender's span id (the parent of the
// receiver's root span). The zero value means "untraced".
type TraceContext struct {
	TraceID string // 16 lowercase hex chars
	SpanID  string // 16 lowercase hex chars
}

// Valid reports whether the context identifies a trace.
func (tc TraceContext) Valid() bool {
	return isHexID(tc.TraceID) && isHexID(tc.SpanID)
}

// Header renders the context in X-Phasetune-Trace form, or "" when the
// context is invalid (callers then omit the header entirely).
func (tc TraceContext) Header() string {
	if !tc.Valid() {
		return ""
	}
	return tc.TraceID + "-" + tc.SpanID
}

// ParseTraceContext parses an X-Phasetune-Trace header value. ok is
// false for empty or malformed values — a bad header is ignored, never
// an error, so a corrupted trace id cannot fail a request.
func ParseTraceContext(h string) (TraceContext, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return TraceContext{}, false
	}
	i := strings.IndexByte(h, '-')
	if i < 0 {
		return TraceContext{}, false
	}
	tc := TraceContext{TraceID: h[:i], SpanID: h[i+1:]}
	if !tc.Valid() {
		return TraceContext{}, false
	}
	return tc, true
}

func isHexID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
