package metrics

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// TestExpositionGolden locks the text exposition format: family headers,
// label rendering and escaping, histogram cumulative buckets, collector
// output, deterministic ordering.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	v := r.CounterVec("test_sheds_total", "Requests shed.", "reason")
	v.With("queue_full").Add(2)
	v.With("rate_limit").Inc()

	h := r.HistogramVec("test_latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "route").With("rank")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	r.Collect(func(w *Writer) {
		w.Family("test_shard_requests_total", "counter", "Per-shard requests.")
		w.Sample("test_shard_requests_total", 7, "shard", "0")
		w.Sample("test_shard_requests_total", 9, "shard", "1")
		w.Family("test_batch_records", "histogram", "Batch sizes.")
		w.Histogram("test_batch_records", []float64{1, 2}, []int64{5, 3, 1}, 18, "shard", "0")
	})

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_sheds_total Requests shed.
# TYPE test_sheds_total counter
test_sheds_total{reason="queue_full"} 2
test_sheds_total{reason="rate_limit"} 1
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{route="rank",le="0.01"} 1
test_latency_seconds_bucket{route="rank",le="0.1"} 3
test_latency_seconds_bucket{route="rank",le="1"} 3
test_latency_seconds_bucket{route="rank",le="+Inf"} 4
test_latency_seconds_sum{route="rank"} 5.105
test_latency_seconds_count{route="rank"} 4
# HELP test_shard_requests_total Per-shard requests.
# TYPE test_shard_requests_total counter
test_shard_requests_total{shard="0"} 7
test_shard_requests_total{shard="1"} 9
# HELP test_batch_records Batch sizes.
# TYPE test_batch_records histogram
test_batch_records_bucket{shard="0",le="1"} 5
test_batch_records_bucket{shard="0",le="2"} 8
test_batch_records_bucket{shard="0",le="+Inf"} 9
test_batch_records_sum{shard="0"} 18
test_batch_records_count{shard="0"} 9
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionLineFormat asserts every rendered line is either a comment
// or matches the sample-line grammar — the same check the overload smoke
// applies to a live scrape.
func TestExpositionLineFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("fmt_total", "With tricky label values.", "path").
		With(`a"b\c` + "\nd").Inc()
	r.HistogramVec("fmt_hist", "H.", []float64{0.5}, "k").With("v").Observe(-0.25)

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		// name{labels} value — labels optional, value a float or ±Inf.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		if !strings.HasPrefix(name, "fmt_") {
			t.Fatalf("unexpected series %q", line)
		}
		if val != "+Inf" && val != "-Inf" {
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Fatalf("bad value %q in line %q: %v", val, line, err)
			}
		}
		if i := strings.IndexByte(name, '{'); i >= 0 && !strings.HasSuffix(name, "}") {
			t.Fatalf("unterminated label block in %q", line)
		}
	}
	// The escaped label value must round-trip the escapes.
	if !strings.Contains(b.String(), `path="a\"b\\c\nd"`) {
		t.Errorf("label escaping broken:\n%s", b.String())
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive bucketing: a value
// equal to an upper bound lands in that bucket, just above it in the next,
// and everything above the last bound in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.HistogramVec("bounds_seconds", "B.", []float64{1, 2, 4}, "k").With("v")

	h.Observe(1)             // le="1"
	h.Observe(1.0000001)     // le="2"
	h.Observe(2)             // le="2"
	h.Observe(4)             // le="4"
	h.Observe(4.5)           // +Inf
	h.Observe(math.MaxInt32) // +Inf
	h.Observe(0)             // le="1"
	h.Observe(-1)            // le="1" (below the first bound still counts)

	want := []uint64{3, 2, 1, 2} // raw per-bucket: le1, le2, le4, +Inf
	for i, n := range want {
		if got := h.buckets[i].Load(); got != n {
			t.Errorf("bucket %d = %d, want %d", i, got, n)
		}
	}
	if h.Count() != 8 {
		t.Errorf("count = %d, want 8", h.Count())
	}

	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`bounds_seconds_bucket{k="v",le="1"} 3`,
		`bounds_seconds_bucket{k="v",le="2"} 5`,
		`bounds_seconds_bucket{k="v",le="4"} 6`,
		`bounds_seconds_bucket{k="v",le="+Inf"} 8`,
		`bounds_seconds_count{k="v"} 8`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
}

// TestConcurrentIncrements hammers both instrument types from many
// goroutines while scrapes run concurrently — run under -race in CI; the
// final counts must be exact (atomics lose nothing).
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conc_labeled_total", "CL.", "k")
	h := r.HistogramVec("conc_hist", "H.", []float64{0.5}, "k").With("a")

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := []string{"a", "b"}[w%2]
			for i := 0; i < perWorker; i++ {
				v.With(key).Inc()
				h.Observe(float64(i%2) * 0.75)
			}
		}(w)
	}
	// Concurrent scrapes must not race observation.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if _, err := r.WriteTo(&b); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	const total = workers * perWorker
	if n := v.With("a").Value() + v.With("b").Value(); n != total {
		t.Errorf("vec sum = %d, want %d", n, total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
}

// TestHandler serves the exposition over HTTP with the Prometheus content
// type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("handler_total", "H.", "k").With("v").Add(1)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("content type = %q, want %q", ct, ContentType)
	}
	if !strings.Contains(rec.Body.String(), `handler_total{k="v"} 1`+"\n") {
		t.Errorf("body missing series:\n%s", rec.Body.String())
	}
}

// TestRegistrationPanics pins the startup-time failure mode for invalid
// and duplicate registrations.
func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("ok_total", "x", "k")
	for name, fn := range map[string]func(){
		"duplicate name":    func() { r.CounterVec("ok_total", "again", "k") },
		"bad metric name":   func() { r.CounterVec("bad-name", "x", "k") },
		"no labels":         func() { r.CounterVec("bare_total", "x") },
		"bad label name":    func() { r.CounterVec("v_total", "x", "bad-label") },
		"reserved le label": func() { r.HistogramVec("h_seconds", "x", []float64{1}, "le") },
		"empty buckets":     func() { r.HistogramVec("e_seconds", "x", nil, "k").With("v") },
		"descending":        func() { r.HistogramVec("d_seconds", "x", []float64{2, 1}, "k").With("v") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestWithExistingChildAllocatesNothing: a request records its series
// through With on children that already exist; that look-up must not
// allocate (it once joined the label values into a fresh key string).
func TestWithExistingChildAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	requests := r.CounterVec("reqs_total", "h", "route", "code")
	latency := r.HistogramVec("lat_seconds", "h", []float64{0.1, 1}, "route")
	requests.With("POST /v1/rank", "200").Inc()
	latency.With("POST /v1/rank").Observe(0.5)
	allocs := testing.AllocsPerRun(100, func() {
		requests.With("POST /v1/rank", "200").Inc()
		latency.With("POST /v1/rank").Observe(0.5)
	})
	if allocs != 0 {
		t.Errorf("With on existing children: %v allocs/op, want 0", allocs)
	}
	if got := requests.With("POST /v1/rank", "200").Value(); got != 102 {
		t.Errorf("counter = %d, want 102", got)
	}
}
