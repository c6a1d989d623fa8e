package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/metrics"
)

// reqInfo travels with a request through the middleware chain: the ID is
// assigned (or adopted from X-Request-ID) before the handler runs, and
// handlers annotate user/shard as they learn them so the access-log line
// and error bodies are attributable. Handlers run on the request's own
// goroutine, so plain fields need no synchronization.
type reqInfo struct {
	id        string
	user      string
	shard     int    // -1 until a routed operation reports its shard
	encodeErr string // first response encode/write failure, for the access log
	// deadline is when the request times out (see requestTimeout); zero
	// without a request timeout. Only the admission queue reads it.
	deadline time.Time
}

type reqInfoKeyType struct{}

var reqInfoKey reqInfoKeyType

// requestInfo returns the request's reqInfo, or nil when the request did
// not pass through the observability middleware (bare NewHandlerFor).
func requestInfo(r *http.Request) *reqInfo {
	info, _ := r.Context().Value(reqInfoKey).(*reqInfo)
	return info
}

// annotate records the user (and shard, when >= 0) on the request's
// reqInfo for the access log; a no-op without the middleware.
func annotate(r *http.Request, user string, shard int) {
	if info := requestInfo(r); info != nil {
		info.user = user
		if shard >= 0 {
			info.shard = shard
		}
	}
}

// noteEncodeError records a response encode/write failure on the
// request's reqInfo so the access-log line ties the failure to the
// request ID. First error wins: the fallback-encode path may fail again
// on the same broken connection, and the root cause is the useful one.
func noteEncodeError(r *http.Request, err error) {
	if info := requestInfo(r); info != nil && info.encodeErr == "" {
		info.encodeErr = err.Error()
	}
}

// Request IDs are a per-process random prefix plus an atomic counter:
// unique within and across restarts, cheap to mint, trivially greppable.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			binaryFill(b[:])
		}
		return hex.EncodeToString(b[:])
	}()
	reqIDCounter atomic.Int64
)

// binaryFill seeds the prefix from the clock when crypto/rand fails
// (effectively never; keeps the fallback deterministic-free).
func binaryFill(b []byte) {
	n := time.Now().UnixNano()
	for i := range b {
		b[i] = byte(n >> (8 * i))
	}
}

func newRequestID() string {
	return fmt.Sprintf("%s-%06x", reqIDPrefix, reqIDCounter.Add(1))
}

// statusRecorder captures the response status and body size for the
// access log and metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusRecorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// Flusher/deadline methods through this wrapper — the SSE stream flushes
// each event through the observe middleware.
func (w *statusRecorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// logSink serializes JSON-lines writes from concurrent requests onto one
// io.Writer.
type logSink struct {
	mu  sync.Mutex
	out io.Writer
}

// accessLine is one structured request-log record.
type accessLine struct {
	TS        string `json:"ts"`
	ID        string `json:"id"`
	Method    string `json:"method"`
	Route     string `json:"route"`
	Path      string `json:"path"`
	Status    int    `json:"status"`
	Shard     int    `json:"shard"`
	User      string `json:"user,omitempty"`
	LatencyUS int64  `json:"latency_us"`
	Bytes     int64  `json:"bytes"`
	Remote    string `json:"remote,omitempty"`
	// EncodeError is the response encode/write failure, if any; a line
	// with this set describes a response the client did not fully receive.
	EncodeError string `json:"encode_error,omitempty"`
}

func (s *logSink) write(line accessLine) {
	b, err := json.Marshal(line)
	if err != nil {
		return
	}
	b = append(b, '\n')
	s.mu.Lock()
	_, _ = s.out.Write(b)
	s.mu.Unlock()
}

// httpMetrics is the HTTP surface's table: per mux route (bounded
// cardinality: the route pattern, never the raw path), its requests by
// response status and its latency. The middleware records into it and
// collect renders it per scrape. The route map is copied on write: a
// request on a route already seen loads it with one atomic read, takes no
// lock and allocates nothing; only a route's first request copies the map.
type httpMetrics struct {
	mu     sync.Mutex // serializes route inserts
	routes atomic.Pointer[map[string]*routeMetrics]
}

// routeMetrics is one route's row: request counts by status (net/http
// writes 100–999) and the latency histogram.
type routeMetrics struct {
	codes   [900]atomic.Int64
	latency *metrics.Histogram
}

func newHTTPMetrics() *httpMetrics {
	m := &httpMetrics{}
	m.routes.Store(&map[string]*routeMetrics{})
	return m
}

// route returns name's row, adding it on the route's first request.
func (m *httpMetrics) route(name string) *routeMetrics {
	if rm := (*m.routes.Load())[name]; rm != nil {
		return rm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.routes.Load()
	if rm := old[name]; rm != nil {
		return rm
	}
	next := maps.Clone(old)
	rm := &routeMetrics{latency: metrics.NewHistogram(RankLatencyBuckets)}
	next[name] = rm
	m.routes.Store(&next)
	return rm
}

// record counts one request on route. A status net/http refuses (outside
// 100–999) made its WriteHeader panic, and the client got the 500
// recoverPanics wrote instead: it is counted as that.
func (m *httpMetrics) record(route string, status int, elapsed time.Duration) {
	if status < 100 || status > 999 {
		status = http.StatusInternalServerError
	}
	rm := m.route(route)
	rm.codes[status-100].Add(1)
	rm.latency.Observe(elapsed.Seconds())
}

// collect renders the table: carserve_http_requests_total{route,code} and
// carserve_http_request_seconds{route}, routes in sorted order.
func (m *httpMetrics) collect(w *metrics.Writer) {
	routes := *m.routes.Load()
	names := slices.Sorted(maps.Keys(routes))
	w.Family("carserve_http_requests_total", "counter", "HTTP requests by mux route and response status.")
	for _, name := range names {
		for i := range routes[name].codes {
			if n := routes[name].codes[i].Load(); n > 0 {
				w.Sample("carserve_http_requests_total", float64(n), "route", name, "code", strconv.Itoa(100+i))
			}
		}
	}
	w.Family("carserve_http_request_seconds", "histogram",
		"End-to-end HTTP request latency by route, including admission queueing.")
	for _, name := range names {
		h := routes[name].latency
		w.Histogram("carserve_http_request_seconds", RankLatencyBuckets, h.Counts(), h.Sum(), "route", name)
	}
}

// observe is the outermost middleware: it assigns the request ID
// (honoring an inbound X-Request-ID), echoes it on the response, and —
// after the inner handler ran — emits the access-log line and the HTTP
// metrics. Route labels come from Go 1.23's r.Pattern, which the inner
// ServeMux fills in on the same request; unmatched requests are labeled
// "other" to bound cardinality.
func observe(next http.Handler, accessLog io.Writer, hm *httpMetrics) http.Handler {
	var sink *logSink
	if accessLog != nil {
		sink = &logSink{out: accessLog}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started := time.Now()
		// The header key in canonical form, which Get and Set find already
		// canonical and so do not rewrite; inbound keys arrive canonical.
		id := r.Header.Get("X-Request-Id")
		if id == "" || len(id) > 128 {
			id = newRequestID()
		}
		info := &reqInfo{id: id, shard: -1}
		r = r.WithContext(context.WithValue(r.Context(), reqInfoKey, info))
		w.Header().Set("X-Request-Id", id)
		rec := &statusRecorder{ResponseWriter: w}

		next.ServeHTTP(rec, r)

		if rec.status == 0 {
			rec.status = http.StatusOK
		}
		route := r.Pattern
		if route == "" {
			route = "other"
		}
		elapsed := time.Since(started)
		if hm != nil {
			hm.record(route, rec.status, elapsed)
		}
		if sink != nil {
			sink.write(accessLine{
				TS:          started.UTC().Format(time.RFC3339Nano),
				ID:          id,
				Method:      r.Method,
				Route:       route,
				Path:        r.URL.Path,
				Status:      rec.status,
				Shard:       info.shard,
				User:        info.user,
				LatencyUS:   elapsed.Microseconds(),
				Bytes:       rec.bytes,
				Remote:      r.RemoteAddr,
				EncodeError: info.encodeErr,
			})
		}
	})
}

// exemptPath reports whether a request bypasses the shedding middleware
// (drain, admission, request timeout): /healthz must answer while
// shedding or draining (that is when operators look) and a blocked
// /metrics would hide the very overload it reports.
func exemptPath(r *http.Request) bool {
	return r.URL.Path == "/healthz" || r.URL.Path == "/metrics"
}

// streamingPath reports whether the request is a long-lived event stream
// (GET /v1/subscriptions/{id}/events). Streams are exempt from the
// request timeout (a standing push connection has no natural deadline)
// and from the admission concurrency gate (each stream would pin a slot
// for its whole lifetime, starving request traffic; the subscription
// create already charged the per-user token bucket). Drain still applies:
// new streams are refused during shutdown.
func streamingPath(r *http.Request) bool {
	return r.Method == http.MethodGet &&
		strings.HasPrefix(r.URL.Path, "/v1/subscriptions/") &&
		strings.HasSuffix(r.URL.Path, "/events")
}

// admissionGate applies the global concurrency gate + bounded queue. A
// request shed from a full queue gets 429; one whose wait in the queue ended
// — its deadline passed or its client went away — gets 503, and both carry
// Retry-After.
func admissionGate(next http.Handler, adm *Admission) http.Handler {
	if adm == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPath(r) || streamingPath(r) {
			next.ServeHTTP(w, r)
			return
		}
		var deadline time.Time
		if info := requestInfo(r); info != nil {
			deadline = info.deadline
		}
		release, err := adm.Acquire(r.Context(), deadline)
		switch {
		case errors.Is(err, errQueueFull):
			writeShed(w, r, time.Second, err)
			return
		case err != nil:
			// A 503, not a 429: the client (and the access log) sees a
			// timeout, not an overload verdict it should back off from
			// forever.
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusServiceUnavailable, err)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// recoverPanics converts a panic anywhere below it — a handler, the
// backend's rank path, an injected chaos panic — into a 500 with the
// request ID, counted in carserve_panics_total, instead of an aborted
// connection (net/http would recover too, but only after killing the
// response) or a dead daemon.
func recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				NotePanic()
				writeError(w, r, http.StatusInternalServerError,
					fmt.Errorf("serve: internal panic: %v", v))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// DrainGate flips a server into shutdown drain: new API requests are
// refused with 503 + Connection: close (so keep-alive clients reconnect
// elsewhere) while in-flight ones finish under http.Server.Shutdown.
// The zero value is an open gate; methods tolerate a nil receiver.
type DrainGate struct {
	draining atomic.Bool
}

// Start begins draining. Idempotent.
func (g *DrainGate) Start() {
	if g != nil {
		g.draining.Store(true)
	}
}

// Draining reports whether the gate is closed to new requests.
func (g *DrainGate) Draining() bool { return g != nil && g.draining.Load() }

// drainGate refuses new API requests while g is draining. /healthz and
// /metrics stay reachable so orchestrators and scrapes can watch the
// drain complete.
func drainGate(next http.Handler, g *DrainGate) http.Handler {
	if g == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g.Draining() && !exemptPath(r) {
			w.Header().Set("Connection", "close")
			w.Header().Set("Retry-After", "1")
			writeError(w, r, http.StatusServiceUnavailable,
				errors.New("serve: draining for shutdown"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// requestTimeout bounds each API request: it sets the connection's read
// and write deadlines via ResponseController and records the deadline on
// the request's reqInfo, where the admission queue reads it — the one place
// a request waits for something other than its own work. No timer starts
// unless the request queues (see Admission.Acquire), and the request is not
// copied, so the mux-set r.Pattern reaches the outer observe middleware.
// Deliberately not http.TimeoutHandler — that clones the request, and every
// route label would become "other". A rank already executing on the backend
// is not preempted (the rank path is CPU-bound and lock-scoped); the
// deadline cuts queue waits and stuck connections, which is where unbounded
// time actually goes.
func requestTimeout(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if exemptPath(r) || streamingPath(r) {
			next.ServeHTTP(w, r)
			return
		}
		deadline := time.Now().Add(d)
		if info := requestInfo(r); info != nil {
			info.deadline = deadline
		}
		// Best-effort: ResponseControllers over non-hijackable writers
		// (tests, h2c wrappers) report ErrNotSupported; the queue still
		// honors the deadline.
		rc := http.NewResponseController(w)
		_ = rc.SetReadDeadline(deadline)
		_ = rc.SetWriteDeadline(deadline.Add(time.Second))
		next.ServeHTTP(w, r)
	})
}
