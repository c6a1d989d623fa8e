package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/serve/metrics"
	"repro/internal/sql"
	"repro/internal/storage"

	contextrank "repro"
)

// maxBodyBytes bounds request bodies; context updates and rule batches are
// small, and the limit keeps a misbehaving client from ballooning memory.
const maxBodyBytes = 1 << 20

// Handler is the HTTP/JSON front-end over a serving Backend — a single
// *Server or a daemon.Daemon, which embeds one (net/http only).
//
// Endpoints:
//
//	POST   /v1/declare                  {"concepts":[...],"roles":[...],"subconcepts":[{"sub","super"}]}
//	POST   /v1/assert                   {"concepts":[{"concept","id","prob"}],"roles":[{"role","src","dst","prob"}]}
//	GET    /v1/rules                    registered rules
//	POST   /v1/rules                    {"rules":["RULE ... WHEN ... PREFER ... WITH ..."]}
//	DELETE /v1/rules/{name}             remove one rule
//	PUT    /v1/sessions/{user}/context  {"measurements":[{"concept","prob",...}]}
//	GET    /v1/sessions/{user}          session fingerprint + measurements
//	DELETE /v1/sessions/{user}          end the session
//	POST   /v1/rank                     {"user","target","algorithm","threshold","limit","top_k","explain"}
//	GET    /v1/rank?user=&target=&...   same via query parameters (DEPRECATED: use POST /v1/rank)
//	POST   /v1/rank/batch               {"user","algorithm","items":[{"target"|"candidates",...}]} (one plan compile)
//	POST   /v1/subscriptions            {"user","target"|"candidates","threshold","limit","top_k"[,"id"]} standing rank
//	GET    /v1/subscriptions            list registered subscriptions
//	GET    /v1/subscriptions/{id}       one subscription's state
//	DELETE /v1/subscriptions/{id}       tear the subscription down
//	GET    /v1/subscriptions/{id}/events  SSE stream: snapshot, then score deltas on every context change
//	POST   /v1/query                    {"sql":"SELECT ..."} (read-only)
//	POST   /v1/exec                     {"sql":"INSERT ..."} (write; bumps the epoch)
//	GET    /v1/stats                    server statistics
//	GET    /healthz                     liveness
//
// Every rank entry point — POST /v1/rank, GET /v1/rank, each batch item
// and the subscription create — decodes the same result-shaping option
// block (rankOptionsJSON), so field semantics and validation messages
// cannot drift between them. Every non-2xx response body is the
// canonical error envelope: {"error", "code", "request_id"} with a
// machine-readable code (bad_request, unknown_user, not_found, conflict,
// too_costly, rate_limited, degraded, internal).
type Handler struct {
	srv       Backend
	mux       *http.ServeMux
	admission *Admission            // nil = no per-user rate limiting
	chaos     *faultinject.Injector // nil = no /v1/chaos endpoints
}

// NewHandlerFor builds the HTTP API over any serving backend.
func NewHandlerFor(srv Backend) *Handler {
	h := &Handler{srv: srv, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /v1/declare", h.declare)
	h.mux.HandleFunc("POST /v1/assert", h.assert)
	h.mux.HandleFunc("GET /v1/rules", h.listRules)
	h.mux.HandleFunc("POST /v1/rules", h.addRules)
	h.mux.HandleFunc("DELETE /v1/rules/{name}", h.removeRule)
	h.mux.HandleFunc("PUT /v1/sessions/{user}/context", h.setSession)
	h.mux.HandleFunc("GET /v1/sessions/{user}", h.getSession)
	h.mux.HandleFunc("DELETE /v1/sessions/{user}", h.dropSession)
	h.mux.HandleFunc("POST /v1/rank", h.rankPost)
	h.mux.HandleFunc("GET /v1/rank", h.rankGet)
	h.mux.HandleFunc("POST /v1/rank/batch", h.rankBatch)
	h.mux.HandleFunc("POST /v1/subscriptions", h.subscribe)
	h.mux.HandleFunc("GET /v1/subscriptions", h.listSubscriptions)
	h.mux.HandleFunc("GET /v1/subscriptions/{id}", h.getSubscription)
	h.mux.HandleFunc("DELETE /v1/subscriptions/{id}", h.unsubscribe)
	h.mux.HandleFunc("GET /v1/subscriptions/{id}/events", h.subscriptionEvents)
	h.mux.HandleFunc("POST /v1/query", h.query)
	h.mux.HandleFunc("POST /v1/exec", h.exec)
	h.mux.HandleFunc("GET /v1/stats", h.stats)
	h.mux.HandleFunc("GET /healthz", h.healthz)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// HandlerOptions configures the production middleware around the HTTP
// API. The zero value is equivalent to NewHandlerFor plus request IDs.
type HandlerOptions struct {
	// Admission applies overload control: the global concurrency gate +
	// bounded queue around every /v1 endpoint, and per-user token-bucket
	// rate limiting inside the per-user endpoints. nil disables both.
	Admission *Admission
	// AccessLog receives one JSON line per request (see accessLine). nil
	// disables request logging.
	AccessLog io.Writer
	// Metrics, when set, is populated with the carserve_* series (backend
	// stats, admission counters, HTTP surface) and served at GET /metrics.
	Metrics *metrics.Registry
	// Drain, when set, lets the owner flip the server into shutdown
	// drain: new API requests get 503 + Connection: close while
	// in-flight ones finish (see DrainGate).
	Drain *DrainGate
	// RequestTimeout bounds each API request: it sets the connection's
	// read and write deadlines, and a request still waiting in the
	// admission queue when it passes is shed with 503 (see
	// requestTimeout). 0 disables.
	RequestTimeout time.Duration
	// Chaos, when set, exposes the fault injector at /v1/chaos
	// (GET = armed faults with counters, POST {"faults":[...]} = arm,
	// DELETE = disarm all). Serving-side injection points (rank,
	// journal FS) must be wired to the same injector by the daemon. Never set it in production without authentication in
	// front: armed faults are real outages.
	Chaos *faultinject.Injector
}

// NewHandlerWith builds the HTTP API wrapped in the production
// middleware: request-ID assignment and echo, structured request
// logging, Prometheus metrics at /metrics, panic containment, load
// shedding, drain and per-request deadlines.
func NewHandlerWith(srv Backend, opts HandlerOptions) http.Handler {
	h := NewHandlerFor(srv)
	h.admission = opts.Admission
	h.chaos = opts.Chaos
	var hm *httpMetrics
	if opts.Metrics != nil {
		RegisterBackendMetrics(opts.Metrics, srv)
		RegisterAdmissionMetrics(opts.Metrics, opts.Admission)
		hm = newHTTPMetrics(opts.Metrics)
		h.mux.Handle("GET /metrics", opts.Metrics.Handler())
	}
	if opts.Chaos != nil {
		h.mux.HandleFunc("GET /v1/chaos", h.chaosList)
		h.mux.HandleFunc("POST /v1/chaos", h.chaosArm)
		h.mux.HandleFunc("DELETE /v1/chaos", h.chaosClear)
	}
	// Inside out: admission gates the handler; recoverPanics catches
	// panics from both (admission's release still runs on the way up);
	// the timeout wraps the queue wait too; drain refuses before any of
	// that spends work; observe sees every outcome, drained and shed
	// included, with route labels intact.
	inner := recoverPanics(admissionGate(h, opts.Admission))
	inner = requestTimeout(inner, opts.RequestTimeout)
	inner = drainGate(inner, opts.Drain)
	return observe(inner, opts.AccessLog, hm)
}

// admitUser charges the request against user's token bucket, writing the
// 429 (with Retry-After) itself on rejection. Nil-admission servers admit
// everything.
func (h *Handler) admitUser(w http.ResponseWriter, r *http.Request, user string) bool {
	ok, retry := h.admission.AllowUser(user)
	if !ok {
		annotate(r, user, -1)
		writeShed(w, r, retry, fmt.Errorf("serve: user %q over rate limit", user))
		return false
	}
	return true
}

// --- request/response shapes ----------------------------------------------

// errorResponse is the canonical error envelope: every non-2xx body the
// API writes has exactly this shape.
type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable error class — bad_request,
	// unknown_user, not_found, conflict, too_costly, rate_limited,
	// degraded or internal — stable across message-text changes, so clients
	// branch on it instead of parsing Error.
	Code string `json:"code"`
	// RequestID ties the error to its access-log line and X-Request-ID
	// header; empty when the handler runs without the middleware.
	RequestID string `json:"request_id,omitempty"`
}

type declareRequest struct {
	Concepts    []string `json:"concepts"`
	Roles       []string `json:"roles"`
	Subconcepts []struct {
		Sub   string `json:"sub"`
		Super string `json:"super"`
	} `json:"subconcepts"`
}

type assertRequest struct {
	Concepts []struct {
		Concept string  `json:"concept"`
		ID      string  `json:"id"`
		Prob    float64 `json:"prob"`
	} `json:"concepts"`
	Roles []struct {
		Role string  `json:"role"`
		Src  string  `json:"src"`
		Dst  string  `json:"dst"`
		Prob float64 `json:"prob"`
	} `json:"roles"`
}

type rulesRequest struct {
	Rules []string `json:"rules"`
}

type ruleJSON struct {
	Name       string  `json:"name"`
	Context    string  `json:"context"`
	Preference string  `json:"preference"`
	Sigma      float64 `json:"sigma"`
}

type sessionRequest struct {
	Measurements []measurementJSON `json:"measurements"`
}

type measurementJSON struct {
	Concept    string  `json:"concept"`
	Individual string  `json:"individual,omitempty"`
	Prob       float64 `json:"prob"`
	Exclusive  string  `json:"exclusive,omitempty"`
	Source     string  `json:"source,omitempty"`
}

// rankOptionsJSON is the one result-shaping option block every rank
// entry point decodes — POST /v1/rank, GET /v1/rank, each /v1/rank/batch
// item and the subscription create all embed it, so a field added (or a
// validation rule changed) here applies to all four at once and their
// error messages stay byte-identical.
type rankOptionsJSON struct {
	Algorithm string  `json:"algorithm,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Limit     int     `json:"limit,omitempty"`
	// TopK keeps only the best k results via the plan's bounded heap. A
	// pointer so an explicit zero (meaningless: "best none") can be
	// rejected while an absent field keeps the full-ranking default.
	TopK    *int `json:"top_k,omitempty"`
	Explain bool `json:"explain,omitempty"`
}

// item validates the block and shapes it as a RankItem for the caller to
// point at a target or candidate list (the algorithm travels separately:
// it belongs to the request, not the item). field names the top_k field in
// error messages ("top_k", "items[3].top_k") so batch items report their
// position. Absent top_k means "full ranking"; explicit values must be
// positive — silently treating 0 as "all" would mask a caller that meant to
// bound the response and didn't.
func (o rankOptionsJSON) item(field string) (RankItem, error) {
	it := RankItem{Threshold: o.Threshold, Limit: o.Limit, Explain: o.Explain}
	if o.TopK != nil {
		if *o.TopK <= 0 {
			return RankItem{}, fmt.Errorf("serve: %s must be positive (got %d)", field, *o.TopK)
		}
		it.TopK = *o.TopK
	}
	return it, nil
}

// rankQueryOptions decodes the same option block from GET query
// parameters; numeric parse failures report the offending raw value.
func rankQueryOptions(q url.Values) (rankOptionsJSON, error) {
	o := rankOptionsJSON{
		Algorithm: q.Get("algorithm"),
		Explain:   q.Get("explain") == "true",
	}
	if v := q.Get("threshold"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return o, fmt.Errorf("serve: bad threshold %q", v)
		}
		o.Threshold = t
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return o, fmt.Errorf("serve: bad limit %q", v)
		}
		o.Limit = n
	}
	if v := q.Get("top_k"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return o, fmt.Errorf("serve: bad top_k %q", v)
		}
		o.TopK = &n
	}
	return o, nil
}

type rankRequest struct {
	User   string `json:"user"`
	Target string `json:"target"`
	rankOptionsJSON
}

type rankResponse struct {
	Results []resultJSON `json:"results"`
	Cached  bool         `json:"cached"`
	Epoch   int64        `json:"epoch"`
	Shard   int          `json:"shard"` // always 0 on an unsharded server
	Micros  int64        `json:"micros"`
}

type resultJSON struct {
	ID          string   `json:"id"`
	Score       float64  `json:"score"`
	Explanation []string `json:"explanation,omitempty"`
}

type rankBatchRequest struct {
	User      string         `json:"user"`
	Algorithm string         `json:"algorithm,omitempty"`
	Items     []rankItemJSON `json:"items"`
}

type rankItemJSON struct {
	Target     string   `json:"target,omitempty"`
	Candidates []string `json:"candidates,omitempty"`
	rankOptionsJSON
}

type rankBatchResponse struct {
	Items  []rankBatchItemJSON `json:"items"`
	Epoch  int64               `json:"epoch"`
	Shard  int                 `json:"shard"`
	Micros int64               `json:"micros"`
}

type rankBatchItemJSON struct {
	Results []resultJSON `json:"results,omitempty"`
	Cached  bool         `json:"cached"`
	Error   string       `json:"error,omitempty"`
}

// subscribeRequest registers a standing rank subscription: the same
// user/target/candidates shape as a batch item plus the shared option
// block. ID is optional — set it to make the create idempotent (or to
// replace an existing subscription); empty mints one.
type subscribeRequest struct {
	ID         string   `json:"id,omitempty"`
	User       string   `json:"user"`
	Target     string   `json:"target,omitempty"`
	Candidates []string `json:"candidates,omitempty"`
	rankOptionsJSON
}

type sqlRequest struct {
	SQL string `json:"sql"`
}

type sqlResponse struct {
	Cols []string `json:"cols"`
	Rows [][]any  `json:"rows"`
}

// --- endpoint implementations ---------------------------------------------

func (h *Handler) declare(w http.ResponseWriter, r *http.Request) {
	var req declareRequest
	if !decodeBody(w, r, &req) {
		return
	}
	subs := make([]SubConceptDecl, len(req.Subconcepts))
	for i, sc := range req.Subconcepts {
		subs[i] = SubConceptDecl(sc)
	}
	epoch, err := h.srv.Declare(req.Concepts, req.Roles, subs)
	if err != nil {
		writeMutationError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]int64{"epoch": epoch})
}

func (h *Handler) assert(w http.ResponseWriter, r *http.Request) {
	var req assertRequest
	if !decodeBody(w, r, &req) {
		return
	}
	concepts := make([]ConceptAssertion, len(req.Concepts))
	for i, a := range req.Concepts {
		concepts[i] = ConceptAssertion(a)
	}
	roles := make([]RoleAssertion, len(req.Roles))
	for i, a := range req.Roles {
		roles[i] = RoleAssertion(a)
	}
	epoch, err := h.srv.Assert(concepts, roles)
	if err != nil {
		writeMutationError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]int64{"epoch": epoch})
}

func (h *Handler) listRules(w http.ResponseWriter, r *http.Request) {
	rules := h.srv.Rules()
	out := make([]ruleJSON, 0, len(rules))
	for _, rule := range rules {
		out = append(out, ruleJSON{
			Name:       rule.Name,
			Context:    rule.Context.String(),
			Preference: rule.Preference.String(),
			Sigma:      rule.Sigma,
		})
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"rules": out})
}

func (h *Handler) addRules(w http.ResponseWriter, r *http.Request) {
	var req rulesRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Rules) == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("serve: no rules in request"))
		return
	}
	added, epoch, err := h.srv.AddRules(req.Rules)
	if err != nil {
		writeMutationError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"added": added, "epoch": epoch})
}

func (h *Handler) removeRule(w http.ResponseWriter, r *http.Request) {
	epoch, err := h.srv.RemoveRule(r.PathValue("name"))
	if err != nil {
		writeMutationError(w, r, http.StatusNotFound, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]int64{"epoch": epoch})
}

func (h *Handler) setSession(w http.ResponseWriter, r *http.Request) {
	user := r.PathValue("user")
	if !h.admitUser(w, r, user) {
		return
	}
	annotate(r, user, -1)
	var req sessionRequest
	if !decodeBody(w, r, &req) {
		return
	}
	ms := make([]Measurement, len(req.Measurements))
	for i, m := range req.Measurements {
		ms[i] = Measurement(m)
	}
	fp, err := h.srv.SetSession(user, ms)
	if err != nil {
		writeMutationError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]string{"fingerprint": fp})
}

func (h *Handler) getSession(w http.ResponseWriter, r *http.Request) {
	user := r.PathValue("user")
	annotate(r, user, -1)
	ms, fp, ok := h.srv.SessionInfo(user)
	if !ok {
		writeErrorCode(w, r, http.StatusNotFound, "unknown_user", fmt.Errorf("serve: no session for %q", user))
		return
	}
	out := make([]measurementJSON, len(ms))
	for i, m := range ms {
		out[i] = measurementJSON(m)
	}
	writeJSON(w, r, http.StatusOK, map[string]any{
		"user":         user,
		"fingerprint":  fp,
		"measurements": out,
	})
}

func (h *Handler) dropSession(w http.ResponseWriter, r *http.Request) {
	user := r.PathValue("user")
	annotate(r, user, -1)
	if err := h.srv.DropSession(user); err != nil {
		writeMutationError(w, r, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]string{"status": "dropped"})
}

func (h *Handler) rankPost(w http.ResponseWriter, r *http.Request) {
	var req rankRequest
	if !decodeBody(w, r, &req) {
		return
	}
	h.rank(w, r, req)
}

// rankGetSunset is the Sunset date advertised on the deprecated GET
// surface (RFC 8594); after it the route may be removed in a major
// version.
const rankGetSunset = "Thu, 01 Jan 2027 00:00:00 GMT"

// rankGet is the deprecated query-parameter rank surface. POST /v1/rank
// is the canonical entry point — it takes the same option block as the
// batch and subscription routes, and a JSON body does not leak rank
// targets into proxy access logs the way a query string does. The
// response carries the standard deprecation headers so clients can
// detect the status mechanically.
func (h *Handler) rankGet(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Deprecation", "true")
	w.Header().Set("Sunset", rankGetSunset)
	q := r.URL.Query()
	opts, err := rankQueryOptions(q)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	h.rank(w, r, rankRequest{User: q.Get("user"), Target: q.Get("target"), rankOptionsJSON: opts})
}

func (h *Handler) rank(w http.ResponseWriter, r *http.Request, req rankRequest) {
	if req.User == "" || req.Target == "" {
		writeError(w, r, http.StatusBadRequest, errors.New("serve: rank needs user and target"))
		return
	}
	item, err := req.item("top_k")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if !h.admitUser(w, r, req.User) {
		return
	}
	results, meta, err := h.srv.Rank(req.User, req.Target, item.options(contextrank.Algorithm(req.Algorithm)))
	annotate(r, req.User, meta.Shard)
	if err != nil {
		// A valid request past a ranker's exact-computation bound is not
		// the client's mistake to fix: 422 too_costly, not 400.
		status := http.StatusBadRequest
		var costly *core.TooCostlyError
		if errors.As(err, &costly) {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, r, status, err)
		return
	}
	writeBody(w, r, http.StatusOK, func(buf *bytes.Buffer) error {
		return appendRank(buf, results, meta)
	})
}

// appendRank writes the rank response for results served as meta says,
// byte for byte what json.Encoder renders for the rankResponse of the same
// results and meta: the results array (see appendResults), then the four
// numbers.
func appendRank(buf *bytes.Buffer, results []contextrank.Result, meta RankMeta) error {
	buf.WriteString(`{"results":`)
	if err := appendResults(buf, results, meta); err != nil {
		return err
	}
	b := append(buf.AvailableBuffer(), `,"cached":`...)
	b = strconv.AppendBool(b, meta.Cached)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, meta.Epoch, 10)
	b = append(b, `,"shard":`...)
	b = strconv.AppendInt(b, int64(meta.Shard), 10)
	b = append(b, `,"micros":`...)
	b = strconv.AppendInt(b, meta.Elapsed.Microseconds(), 10)
	b = append(b, "}\n"...)
	buf.Write(b)
	return nil
}

// appendResults writes the JSON results array of a served ranking. A cache
// hit writes the ranking's stored encoding; the first hit finds none, so it
// encodes the results and keeps the bytes (concurrent first hits each encode,
// one keeps its copy). A miss encodes and keeps nothing: a ranking served
// once stores no bytes.
func appendResults(buf *bytes.Buffer, results []contextrank.Result, meta RankMeta) error {
	if !meta.Cached || meta.enc == nil {
		return encodeResults(buf, results)
	}
	if stored := meta.enc.Load(); stored != nil {
		buf.Write(*stored)
		return nil
	}
	start := buf.Len()
	if err := encodeResults(buf, results); err != nil {
		return err
	}
	stored := bytes.Clone(buf.Bytes()[start:])
	meta.enc.CompareAndSwap(nil, &stored)
	return nil
}

// encodeResults writes results as the JSON array rankResponse.Results
// renders to — byte for byte what json.Encoder writes for resultsJSON(results)
// (without its newline), appended by hand: no reflection and no intermediate
// slice. A score json cannot represent (NaN, ±Inf) is the encoder's error,
// and nothing is written.
func encodeResults(buf *bytes.Buffer, results []contextrank.Result) error {
	b := append(buf.AvailableBuffer(), '[')
	for i, res := range results {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = appendJSONString(b, res.ID)
		b = append(b, `,"score":`...)
		var err error
		if b, err = appendJSONFloat(b, res.Score); err != nil {
			return err
		}
		if res.Explanation != nil && len(res.Explanation.Rules) > 0 {
			b = append(b, `,"explanation":[`...)
			for j, rc := range res.Explanation.Rules {
				if j > 0 {
					b = append(b, ',')
				}
				b = appendJSONString(b, rc.String())
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	buf.Write(append(b, ']'))
	return nil
}

// appendJSONFloat appends f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and from 1e21 up with a two-digit
// negative exponent cut to one digit (e-09 → e-9).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendJSONString appends s quoted as json.Encoder quotes it with its default
// HTML escaping: '"', '\\' and the control bytes escaped (\b \f \n \r \t by
// name), '<', '>' and '&' as \u00XX, U+2028 and U+2029 escaped, and each byte
// of invalid UTF-8 replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// resultsJSON renders ranked results for transport; /v1/rank and
// /v1/rank/batch share it so the two endpoints cannot drift.
func resultsJSON(results []contextrank.Result) []resultJSON {
	out := make([]resultJSON, len(results))
	for i, res := range results {
		rj := resultJSON{ID: res.ID, Score: res.Score}
		if res.Explanation != nil {
			for _, rc := range res.Explanation.Rules {
				rj.Explanation = append(rj.Explanation, rc.String())
			}
		}
		out[i] = rj
	}
	return out
}

func (h *Handler) rankBatch(w http.ResponseWriter, r *http.Request) {
	var req rankBatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.User == "" || len(req.Items) == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("serve: batch rank needs a user and at least one item"))
		return
	}
	if !h.admitUser(w, r, req.User) {
		return
	}
	items := make([]RankItem, len(req.Items))
	for i, it := range req.Items {
		// The shared option block syntactically admits "algorithm", but a
		// batch ranks every item under one algorithm (one plan compile);
		// a per-item value would be silently ignored, so refuse it loudly.
		if it.Algorithm != "" {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf(
				"serve: items[%d].algorithm must be empty; the batch algorithm applies to every item", i))
			return
		}
		var err error
		if items[i], err = it.item(fmt.Sprintf("items[%d].top_k", i)); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
		items[i].Target, items[i].Candidates = it.Target, it.Candidates
	}
	results, meta, err := h.srv.RankBatch(req.User, contextrank.Algorithm(req.Algorithm), items)
	annotate(r, req.User, meta.Shard)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	out := rankBatchResponse{
		Items:  make([]rankBatchItemJSON, len(results)),
		Epoch:  meta.Epoch,
		Shard:  meta.Shard,
		Micros: meta.Elapsed.Microseconds(),
	}
	for i, item := range results {
		ij := rankBatchItemJSON{Cached: item.Cached}
		if item.Err != nil {
			ij.Error = item.Err.Error()
		} else {
			ij.Results = resultsJSON(item.Results)
		}
		out.Items[i] = ij
	}
	writeJSON(w, r, http.StatusOK, out)
}

// --- standing subscriptions ------------------------------------------------

func (h *Handler) subscribe(w http.ResponseWriter, r *http.Request) {
	var req subscribeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// The shared option block admits algorithm and explain syntactically;
	// subscriptions support neither (the evaluator ranks with the default
	// plan algorithm, and explanations would bloat every pushed delta).
	if req.Algorithm != "" {
		writeError(w, r, http.StatusBadRequest, errors.New(
			"serve: algorithm must be empty; subscriptions rank with the default algorithm"))
		return
	}
	if req.Explain {
		writeError(w, r, http.StatusBadRequest, errors.New(
			"serve: explain is not supported on subscriptions"))
		return
	}
	item, err := req.item("top_k")
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	item.Target, item.Candidates = req.Target, req.Candidates
	if req.User == "" {
		writeError(w, r, http.StatusBadRequest, errors.New("serve: subscription needs a user"))
		return
	}
	if !h.admitUser(w, r, req.User) {
		return
	}
	info, err := h.srv.Subscribe(req.ID, SubscriptionSpec{User: req.User, RankItem: item})
	annotate(r, req.User, info.Shard)
	if err != nil {
		writeMutationError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusCreated, info)
}

func (h *Handler) listSubscriptions(w http.ResponseWriter, r *http.Request) {
	subs := h.srv.Subscriptions()
	if subs == nil {
		subs = []SubscriptionInfo{}
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"subscriptions": subs})
}

func (h *Handler) getSubscription(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	for _, info := range h.srv.Subscriptions() {
		if info.ID == id {
			annotate(r, info.User, info.Shard)
			writeJSON(w, r, http.StatusOK, info)
			return
		}
	}
	writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: no subscription %q", id))
}

func (h *Handler) unsubscribe(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	found, err := h.srv.Unsubscribe(id)
	if err != nil {
		writeMutationError(w, r, http.StatusInternalServerError, err)
		return
	}
	if !found {
		writeError(w, r, http.StatusNotFound, fmt.Errorf("serve: no subscription %q", id))
		return
	}
	writeJSON(w, r, http.StatusOK, map[string]string{"status": "unsubscribed"})
}

// subscriptionEvents is the push side: a Server-Sent Events stream that
// opens with a full snapshot of the subscription's current ranking and
// then carries one delta event per relevant state change. The middleware
// exempts this route from the request timeout and the admission
// concurrency gate (a standing stream would otherwise pin a slot or be
// cut at the deadline); the per-user token bucket was already charged by
// the subscription create.
func (h *Handler) subscriptionEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := h.srv.SubscriptionStream(id)
	if err != nil {
		if errors.Is(err, ErrSubscriptionBusy) {
			writeError(w, r, http.StatusConflict, err)
			return
		}
		writeError(w, r, http.StatusNotFound, err)
		return
	}
	defer st.Close()
	annotate(r, st.User(), -1)

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no") // tell buffering proxies not to hold events
	w.WriteHeader(http.StatusOK)
	send := func(ev SubEvent) bool {
		data, merr := json.Marshal(ev)
		if merr != nil {
			noteEncodeError(r, fmt.Errorf("encode: %w", merr))
			return false
		}
		if _, werr := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); werr != nil {
			return false
		}
		return rc.Flush() == nil
	}
	if !send(st.Snapshot()) {
		return
	}

	keepalive := time.NewTicker(subKeepAlive)
	defer keepalive.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-st.Events():
			if !ok {
				// Unsubscribed (or replaced): tell the consumer this is a
				// deliberate end, not a broken connection to retry.
				send(SubEvent{Type: "unsubscribed", ID: id})
				return
			}
			if st.TakeLagged() {
				// Deltas were dropped while the consumer was behind: the
				// chain is broken, so drain what is queued (all superseded)
				// and replace it with one fresh snapshot.
				for drained := false; !drained; {
					select {
					case _, more := <-st.Events():
						if !more {
							send(SubEvent{Type: "unsubscribed", ID: id})
							return
						}
					default:
						drained = true
					}
				}
				if !send(st.Resync()) {
					return
				}
				continue
			}
			if !send(ev) {
				return
			}
		case <-keepalive.C:
			// SSE comment line: keeps idle connections alive through
			// intermediaries without emitting a client-visible event.
			if _, werr := io.WriteString(w, ": keepalive\n\n"); werr != nil {
				return
			}
			if rc.Flush() != nil {
				return
			}
		}
	}
}

func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	var req sqlRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := h.srv.Query(req.SQL)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, r, http.StatusOK, sqlResultJSON(res))
}

func (h *Handler) exec(w http.ResponseWriter, r *http.Request) {
	var req sqlRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, epoch, err := h.srv.Exec(req.SQL)
	if err != nil {
		writeMutationError(w, r, http.StatusBadRequest, err)
		return
	}
	out := sqlResultJSON(res)
	writeJSON(w, r, http.StatusOK, map[string]any{
		"cols": out.Cols, "rows": out.Rows, "epoch": epoch,
	})
}

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, r, http.StatusOK, h.srv.Stats())
}

// healthzShard is one shard's row in the /healthz detail.
type healthzShard struct {
	Shard  int    `json:"shard"`
	State  string `json:"state"`
	Reason string `json:"reason,omitempty"`
}

// healthz reports liveness plus the failure-domain state. The status is
// always 200 — a degraded daemon is alive and serving reads; restarting
// it (what orchestrators do with failing liveness probes) would only
// destroy the in-memory state the disk probe re-journals. The body
// carries the aggregate state and per-shard detail for operators.
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	st := h.srv.Stats()
	resp := map[string]any{"status": "ok"}
	if st.Health != nil {
		if st.Health.State != StateHealthy {
			resp["status"] = st.Health.State
		}
		resp["health"] = st.Health
	}
	if len(st.Shards) > 0 {
		rows := make([]healthzShard, len(st.Shards))
		for i, ss := range st.Shards {
			rows[i] = healthzShard{Shard: i, State: StateHealthy}
			if ss.Health != nil {
				rows[i].State = ss.Health.State
				rows[i].Reason = ss.Health.Reason
			}
		}
		resp["shards"] = rows
	}
	writeJSON(w, r, http.StatusOK, resp)
}

// --- chaos endpoints (wired only when HandlerOptions.Chaos is set) ---------

type chaosArmRequest struct {
	Faults []faultinject.Fault `json:"faults"`
}

func (h *Handler) chaosList(w http.ResponseWriter, r *http.Request) {
	faults := h.chaos.Snapshot()
	if faults == nil {
		faults = []faultinject.FaultStatus{}
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"faults": faults})
}

func (h *Handler) chaosArm(w http.ResponseWriter, r *http.Request) {
	var req chaosArmRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Faults) == 0 {
		writeError(w, r, http.StatusBadRequest, errors.New("serve: no faults in request"))
		return
	}
	for _, f := range req.Faults {
		if err := h.chaos.Arm(f); err != nil {
			writeError(w, r, http.StatusBadRequest, err)
			return
		}
	}
	writeJSON(w, r, http.StatusOK, map[string]any{"armed": len(req.Faults)})
}

func (h *Handler) chaosClear(w http.ResponseWriter, r *http.Request) {
	h.chaos.Clear()
	writeJSON(w, r, http.StatusOK, map[string]string{"status": "cleared"})
}

// --- helpers ---------------------------------------------------------------

// writeMutationError maps a backend mutation failure: ErrDegraded — the
// journal is down and the write was refused before applying anywhere —
// and ErrNotJournaled — the in-flight write that hit the disk fault
// itself, applied in memory but never acknowledged as durable — both
// become 503 + Retry-After (a background disk probe re-arms the WAL and
// re-journals the unjournaled tail, so retrying is the right client
// move; 4xx would tell it to give up). Anything else keeps the
// endpoint's usual status.
func writeMutationError(w http.ResponseWriter, r *http.Request, fallback int, err error) {
	if errors.Is(err, ErrDegraded) || errors.Is(err, ErrNotJournaled) {
		w.Header().Set("Retry-After", "1")
		writeError(w, r, http.StatusServiceUnavailable, err)
		return
	}
	writeError(w, r, fallback, err)
}

// decodeBody reads the request body as exactly one JSON value into into:
// unknown fields and anything but white space after the value are refused
// with 400, so a body that is two documents is never half applied.
func decodeBody(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, next := dec.Token(); next != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("serve: bad request body: %w", err))
		return false
	}
	return true
}

// jsonBufPool recycles response-body buffers across requests, so a rank
// response — a cache hit's stored results bytes plus four numbers — costs
// its request no body allocation.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBufBytes caps buffers returned to the pool so one oversized
// response (a full-catalog rank with explanations) cannot pin its
// allocation for the life of the process.
const maxPooledBufBytes = 1 << 20

// writeJSON writes payload's JSON encoding as the response (see writeBody).
func writeJSON(w http.ResponseWriter, r *http.Request, status int, payload any) {
	writeBody(w, r, status, func(buf *bytes.Buffer) error {
		return json.NewEncoder(buf).Encode(payload)
	})
}

// writeBody has fill render the response body into a pooled buffer
// *before* writing the header: an encoding failure can still become a clean
// 500 with the request ID instead of a truncated 200, and both encode and
// write failures are recorded on the request's reqInfo so the access-log
// line carries them.
func writeBody(w http.ResponseWriter, r *http.Request, status int, fill func(*bytes.Buffer) error) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= maxPooledBufBytes {
			jsonBufPool.Put(buf)
		}
	}()
	if err := fill(buf); err != nil {
		noteEncodeError(r, fmt.Errorf("encode: %w", err))
		buf.Reset()
		resp := errorResponse{Error: "serve: response encoding failed", Code: "internal"}
		if info := requestInfo(r); info != nil {
			resp.RequestID = info.id
		}
		_ = json.NewEncoder(buf).Encode(resp)
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The client is gone or the connection broke mid-body; nothing to
		// send them, but the access log should say the response was cut.
		noteEncodeError(r, fmt.Errorf("write: %w", err))
	}
}

// errorCode maps a response status + error to the envelope's machine
// code. Sentinel errors win over the status (a write refused or left
// unjournaled by a degraded journal reports "degraded" whatever status
// carried it) so clients can branch on the cause, not the transport code.
func errorCode(status int, err error) string {
	if err != nil && (errors.Is(err, ErrDegraded) || errors.Is(err, ErrNotJournaled)) {
		return "degraded"
	}
	switch {
	case status == http.StatusBadRequest:
		return "bad_request"
	case status == http.StatusNotFound:
		return "not_found"
	case status == http.StatusConflict:
		return "conflict"
	case status == http.StatusUnprocessableEntity:
		return "too_costly"
	case status == http.StatusTooManyRequests:
		return "rate_limited"
	case status == http.StatusServiceUnavailable:
		return "degraded"
	case status >= 500:
		return "internal"
	default:
		return "error"
	}
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	writeErrorCode(w, r, status, errorCode(status, err), err)
}

// writeErrorCode is writeError with an explicit envelope code, for the
// few places where the status alone is ambiguous (a 404 on a session
// lookup is "unknown_user"; on a rule or subscription it is "not_found").
func writeErrorCode(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	resp := errorResponse{Error: err.Error(), Code: code}
	if info := requestInfo(r); info != nil {
		resp.RequestID = info.id
	}
	writeJSON(w, r, status, resp)
}

// writeShed writes the 429 shed response with its Retry-After hint
// (whole seconds, rounded up, at least 1 — the header's granularity).
func writeShed(w http.ResponseWriter, r *http.Request, retry time.Duration, err error) {
	secs := int(math.Ceil(retry.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, r, http.StatusTooManyRequests, err)
}

func sqlResultJSON(res *sql.Result) sqlResponse {
	if res == nil {
		// Statements like CREATE TABLE or INSERT produce no result set.
		return sqlResponse{Cols: []string{}, Rows: [][]any{}}
	}
	out := sqlResponse{Cols: res.Cols, Rows: make([][]any, len(res.Rows))}
	for i, row := range res.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			vals[j] = jsonValue(v)
		}
		out.Rows[i] = vals
	}
	return out
}

// jsonValue renders a storage value for JSON transport; event expressions
// travel as their textual form.
func jsonValue(v storage.Value) any {
	switch v.T {
	case storage.TypeInt:
		return v.I
	case storage.TypeFloat:
		return v.F
	case storage.TypeText:
		return v.S
	case storage.TypeBool:
		return v.B
	case storage.TypeEvent:
		if v.Ev == nil {
			return nil
		}
		return v.Ev.String()
	default:
		return nil
	}
}
