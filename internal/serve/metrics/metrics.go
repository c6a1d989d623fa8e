// Package metrics is a zero-dependency Prometheus-text-exposition registry
// for the serving layer. Every series comes from a collector: a callback
// the registry invokes on each scrape, which derives its series from state
// the serving layer keeps anyway — the serve layer turns one
// Backend.Stats() snapshot into the per-shard QPS/cache/journal series and
// the HTTP middleware's per-route table into the request series, so there
// is no second bookkeeping layer that could drift from /v1/stats.
//
// Histogram is the one bucketed type: fixed ascending bounds, atomic
// per-bucket counts and a sum, so an observation on the rank hot path is a
// binary search and a few atomic operations and a scrape never takes a
// lock that request traffic contends (the same lock-free discipline as the
// serve stats collection, see DESIGN.md §3.5).
//
// The exposition format is the Prometheus text format (version 0.0.4):
// "# HELP"/"# TYPE" headers followed by samples, histograms rendered as
// cumulative le-labeled _bucket series plus _sum and _count. Collectors
// run in registration order.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds the scrape collectors.
type Registry struct {
	mu         sync.Mutex
	collectors []CollectorFunc
}

// CollectorFunc emits series on every scrape.
type CollectorFunc func(w *Writer)

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collect registers a per-scrape collector callback.
func (r *Registry) Collect(fn CollectorFunc) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Histogram counts observations into fixed buckets: upper bounds in
// ascending order, le-inclusive, and an implicit +Inf bucket for the rest.
// Observe is lock-free: one binary search, one atomic add and a CAS loop
// for the float sum. A collector renders it with Writer.Histogram.
type Histogram struct {
	upper   []float64
	counts  []atomic.Int64 // per bucket, not cumulative; last = +Inf
	sumBits atomic.Uint64
}

// NewHistogram builds a histogram over bounds. It panics unless the bounds
// are non-empty and strictly ascending: bounds are fixed where the
// histogram is declared, where a panic is an immediate, attributable
// configuration error rather than a silently misbucketed series.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram buckets not ascending: %v", bounds))
		}
	}
	return &Histogram{
		upper:  append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is >= v (le is inclusive).
	h.counts[sort.SearchFloat64s(h.upper, v)].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Counts returns the per-bucket observation counts, raw rather than
// cumulative, the last slot counting everything above the final bound —
// the form Writer.Histogram takes. Each count is read atomically, but the
// slice is not one point-in-time cut.
func (h *Histogram) Counts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// ContentType is the scrape response content type (Prometheus text format).
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WriteTo runs every collector, rendering the text exposition format.
func (r *Registry) WriteTo(out io.Writer) (int64, error) {
	w := &Writer{out: out}
	r.mu.Lock()
	collectors := append([]CollectorFunc(nil), r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(w)
	}
	return w.n, w.err
}

// Handler returns an http.Handler serving the exposition — mount it at
// GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_, _ = r.WriteTo(w)
	})
}

// Writer renders exposition lines; collectors receive one per scrape.
// Errors are sticky: the first write failure suppresses the rest.
type Writer struct {
	out io.Writer
	n   int64
	err error
}

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	n, err := fmt.Fprintf(w.out, format, args...)
	w.n += int64(n)
	w.err = err
}

// Family writes the # HELP / # TYPE header for a family. Call it once
// before the family's samples.
func (w *Writer) Family(name, typ, help string) {
	w.printf("# HELP %s %s\n", name, escapeHelp(help))
	w.printf("# TYPE %s %s\n", name, typ)
}

// Sample writes one sample line; kv is an alternating label key/value
// list.
func (w *Writer) Sample(name string, value float64, kv ...string) {
	if len(kv)%2 != 0 {
		panic("metrics: Sample needs alternating label key/value pairs")
	}
	labels := make([]string, 0, len(kv)/2)
	values := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		labels = append(labels, kv[i])
		values = append(values, kv[i+1])
	}
	w.sample(name, labels, values, value)
}

// Histogram writes a full histogram family body (cumulative buckets from
// raw per-bucket counts whose last element is the +Inf overflow, then _sum
// and _count) under the given labels. bounds and counts line up as
// len(counts) == len(bounds)+1; a nil counts writes an all-zero histogram.
func (w *Writer) Histogram(name string, bounds []float64, counts []int64, sum float64, kv ...string) {
	if len(kv)%2 != 0 {
		panic("metrics: Histogram needs alternating label key/value pairs")
	}
	var cum int64
	for i, b := range bounds {
		if i < len(counts) {
			cum += counts[i]
		}
		w.Sample(name+"_bucket", float64(cum), append(kv, "le", formatFloat(b))...)
	}
	if len(counts) > len(bounds) {
		cum += counts[len(bounds)]
	}
	w.Sample(name+"_bucket", float64(cum), append(kv, "le", "+Inf")...)
	w.Sample(name+"_sum", sum, kv...)
	w.Sample(name+"_count", float64(cum), kv...)
}

func (w *Writer) sample(name string, labels, values []string, v float64) {
	if len(labels) == 0 {
		w.printf("%s %s\n", name, formatFloat(v))
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	w.printf("%s %s\n", b.String(), formatFloat(v))
}

// formatFloat renders a value the way Prometheus text format expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }
