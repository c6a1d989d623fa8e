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
// label rendering, histogram cumulative buckets from a Histogram and from
// raw counts, and collectors rendering in registration order.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	h := NewHistogram([]float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	r.Collect(func(w *Writer) {
		w.Family("test_sheds_total", "counter", "Requests shed.")
		w.Sample("test_sheds_total", 2, "reason", "queue_full")
		w.Sample("test_sheds_total", 1, "reason", "rate_limit")
		w.Family("test_latency_seconds", "histogram", "Latency.")
		w.Histogram("test_latency_seconds", []float64{0.01, 0.1, 1}, h.Counts(), h.Sum(), "route", "rank")
	})
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
	h := NewHistogram([]float64{0.5})
	h.Observe(-0.25)
	r.Collect(func(w *Writer) {
		w.Family("fmt_total", "counter", "With tricky label values.")
		w.Sample("fmt_total", 1, "path", `a"b\c`+"\nd")
		w.Family("fmt_hist", "histogram", "H.")
		w.Histogram("fmt_hist", []float64{0.5}, h.Counts(), h.Sum(), "k", "v")
	})

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
	bounds := []float64{1, 2, 4}
	h := NewHistogram(bounds)

	h.Observe(1)             // le="1"
	h.Observe(1.0000001)     // le="2"
	h.Observe(2)             // le="2"
	h.Observe(4)             // le="4"
	h.Observe(4.5)           // +Inf
	h.Observe(math.MaxInt32) // +Inf
	h.Observe(0)             // le="1"
	h.Observe(-1)            // le="1" (below the first bound still counts)

	want := []int64{3, 2, 1, 2} // raw per-bucket: le1, le2, le4, +Inf
	got := h.Counts()
	for i, n := range want {
		if got[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, got[i], n)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d buckets, want %d", len(got), len(want))
	}

	r := NewRegistry()
	r.Collect(func(w *Writer) {
		w.Histogram("bounds_seconds", bounds, h.Counts(), h.Sum(), "k", "v")
	})
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

// TestConcurrentIncrements hammers one histogram from many goroutines while
// scrapes render it concurrently — run under -race in CI; the final counts
// and the sum must be exact (atomics and the sum's CAS loop lose nothing).
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.5}
	h := NewHistogram(bounds)
	r.Collect(func(w *Writer) {
		w.Family("conc_hist", "histogram", "H.")
		w.Histogram("conc_hist", bounds, h.Counts(), h.Sum(), "k", "a")
	})

	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%2) * 0.75)
			}
		}()
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
	counts := h.Counts()
	if counts[0] != total/2 || counts[1] != total/2 {
		t.Errorf("bucket counts = %v, want %d in each", counts, total/2)
	}
	if want := 0.75 * total / 2; h.Sum() != want {
		t.Errorf("histogram sum = %v, want %v", h.Sum(), want)
	}
}

// TestHandler serves the exposition over HTTP with the Prometheus content
// type.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Collect(func(w *Writer) {
		w.Family("handler_total", "counter", "H.")
		w.Sample("handler_total", 1, "k", "v")
	})
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("content type = %q, want %q", ct, ContentType)
	}
	if !strings.Contains(rec.Body.String(), `handler_total{k="v"} 1`+"\n") {
		t.Errorf("body missing series:\n%s", rec.Body.String())
	}
}

// TestRegistrationPanics pins the declaration-time failure modes that
// remain: histogram bounds that are empty or not strictly ascending, and
// label lists that are not key/value pairs.
func TestRegistrationPanics(t *testing.T) {
	w := &Writer{out: &strings.Builder{}}
	for name, fn := range map[string]func(){
		"empty buckets":       func() { NewHistogram(nil) },
		"descending":          func() { NewHistogram([]float64{2, 1}) },
		"repeated bound":      func() { NewHistogram([]float64{1, 1}) },
		"odd sample labels":   func() { w.Sample("s_total", 1, "k") },
		"odd histogram label": func() { w.Histogram("h_seconds", []float64{1}, nil, 0, "k") },
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

// TestWithExistingChildAllocatesNothing: a request records its latency
// through Observe on a histogram that already exists; that must not
// allocate. (The per-route look-up in front of it is pinned by the serve
// package's TestRecordRequestAllocatesNothing.)
func TestWithExistingChildAllocatesNothing(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1})
	h.Observe(0.5)
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Errorf("Observe: %v allocs/op, want 0", allocs)
	}
	if got := h.Counts()[1]; got != 102 {
		t.Errorf("bucket le=1 = %d, want 102", got)
	}
}
