package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	contextrank "repro"
	"repro/internal/serve"
)

// Span names. A request's spans nest client > serve.handler > shard.*; the
// layers are timed from outside, around calls into their public surface.
const (
	spanClient  = "client"
	spanHandler = "serve.handler"
	spanRank    = "shard.rank"
	spanSet     = "shard.set_session"
	spanAssert  = "shard.assert"
)

// span is one timed interval. Req is the number in the request's
// X-Request-ID, which the client sets and the server echoes; spans of one
// request share it. Times are nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Req    uint32 `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced pass's server-side spans in memory until the pass
// is over. Client spans stay with the load loop (passResult.spans): the
// client finishes a request at the instant the handler wrapper does, so a
// buffer shared by the two would be a contended lock on every request.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// cur is the request the handler wrapper is inside of (0 = none).
	// Backend methods take no context, so the backend wrapper learns its
	// request from here; with one closed-loop client at most one measured
	// request is in flight, so a single slot is exact.
	cur atomic.Uint32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(name, parent string, req uint32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// handler wraps the whole serve handler (middleware included). Requests
// without a measured-pass id — set-up traffic, the SSE stream — pass
// through unrecorded.
func (t *tracer) handler(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, ok := parseReqID(r.Header.Get("X-Request-ID"))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		t.cur.Store(req)
		start := t.now()
		next.ServeHTTP(w, r)
		end := t.now()
		t.cur.Store(0)
		t.add(spanHandler, spanClient, req, start, end)
	})
}

// tracedBackend wraps the Coordinator's Backend surface; only the three
// methods the op kinds reach are timed, the rest pass through.
type tracedBackend struct {
	serve.Backend
	t *tracer
}

func (b *tracedBackend) record(name string, start int64) {
	if req := b.t.cur.Load(); req != 0 {
		b.t.add(name, spanHandler, req, start, b.t.now())
	}
}

func (b *tracedBackend) Rank(user, target string, opts contextrank.RankOptions) ([]contextrank.Result, serve.RankMeta, error) {
	defer b.record(spanRank, b.t.now())
	return b.Backend.Rank(user, target, opts)
}

func (b *tracedBackend) SetSession(user string, ms []serve.Measurement) (string, error) {
	defer b.record(spanSet, b.t.now())
	return b.Backend.SetSession(user, ms)
}

func (b *tracedBackend) Assert(concepts []serve.ConceptAssertion, roles []serve.RoleAssertion) (int64, error) {
	defer b.record(spanAssert, b.t.now())
	return b.Backend.Assert(concepts, roles)
}

// selfTimes turns the spans into per-request self times: a span's duration
// minus its child's. It returns, per sample class, the client-side "net"
// share (client minus handler), the handler's own share (handler minus
// backend) and the backend duration.
type selfTimes struct {
	net, handler, backend [numClasses][]int64
}

// selfTimes joins the server-side spans to the pass's client spans; request
// n's client span and class sit at index n-1.
func (t *tracer) selfTimes(pass *passResult) selfTimes {
	handler := make([]int64, len(pass.spans))
	backend := make([]int64, len(pass.spans))
	for _, sp := range t.spans {
		if sp.Name == spanHandler {
			handler[sp.Req-1] = sp.End - sp.Start
		} else {
			backend[sp.Req-1] = sp.End - sp.Start
		}
	}
	var st selfTimes
	for i, sp := range pass.spans {
		if handler[i] == 0 || backend[i] == 0 {
			continue // a failed request left an incomplete chain
		}
		class := pass.classes[i]
		st.net[class] = append(st.net[class], sp.End-sp.Start-handler[i])
		st.handler[class] = append(st.handler[class], handler[i]-backend[i])
		st.backend[class] = append(st.backend[class], backend[i])
	}
	return st
}

// write dumps the pass's spans, client and server side, to
// out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, pass *passResult) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(append(pass.spans, t.spans...))
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
