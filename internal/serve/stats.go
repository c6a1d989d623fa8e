package serve

import (
	"sort"
	"sync/atomic"
	"time"
)

// latencyWindow is how many recent observations the percentile estimator
// keeps. Old observations are overwritten ring-buffer style, so reported
// percentiles describe recent traffic, not all-time history.
const latencyWindow = 4096

// RankLatencyBuckets are the fixed histogram bounds (seconds) the latency
// recorder counts into, alongside the percentile ring. They cover the
// rank path's realistic range — a cache hit lands in the first buckets, a
// cold factorized rank in the middle, and anything past 2.5s is tail
// trouble — and being fixed they merge across shards by simple addition,
// which the percentile ring cannot.
var rankLatencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// RankLatencyBuckets is the bounds slice callers (the metrics exporter)
// read; it aliases the fixed backing array.
var RankLatencyBuckets = rankLatencyBounds[:]

// latencyRecorder tracks request latencies in a fixed-size ring. It is
// fully lock-free: observe is two atomic stores on the rank hot path, and
// snapshot reads the ring without excluding writers — a stats scrape can
// never add tail latency to rank traffic. The price is that a snapshot is
// not a consistent point-in-time cut: a slot may be observed mid-update
// (still holding the previous observation, or zero before the first lap
// completes). Percentiles over 4096 samples are insensitive to a handful
// of torn slots.
type latencyRecorder struct {
	ring [latencyWindow]atomic.Int64 // nanoseconds per slot
	next atomic.Int64                // total observations ever; slot = (n-1) % window
	sum  atomic.Int64                // nanoseconds, all-time

	// hist counts all-time observations per RankLatencyBuckets bucket
	// (last slot = +Inf overflow); unlike the ring it never forgets, so
	// /metrics can expose a cumulative Prometheus histogram.
	hist [len(rankLatencyBounds) + 1]atomic.Int64
}

func (r *latencyRecorder) observe(d time.Duration) {
	n := r.next.Add(1)
	r.ring[(n-1)%latencyWindow].Store(int64(d))
	r.sum.Add(int64(d))
	secs := d.Seconds()
	i := sort.SearchFloat64s(RankLatencyBuckets, secs)
	r.hist[i].Add(1)
}

// LatencyStats summarizes the recent latency distribution. Quantiles are
// over the retained window (its actual size is Window); Count and
// MeanMicros are all-time.
type LatencyStats struct {
	Count      int64   `json:"count"`
	Window     int     `json:"window"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P95Micros  float64 `json:"p95_us"`
	P99Micros  float64 `json:"p99_us"`
	// Buckets are all-time per-bucket observation counts aligned with
	// RankLatencyBuckets (len = len(RankLatencyBuckets)+1, the last slot
	// counting everything above the final bound). Raw, not cumulative;
	// /metrics renders the cumulative Prometheus form.
	Buckets []int64 `json:"bucket_counts,omitempty"`
}

func (r *latencyRecorder) snapshot() LatencyStats {
	count := r.next.Load()
	n := int(count)
	if n > latencyWindow {
		n = latencyWindow
	}
	st := LatencyStats{Count: count, Window: n}
	if count > 0 {
		st.MeanMicros = float64(r.sum.Load()) / 1e3 / float64(count)
	}
	st.Buckets = make([]int64, len(r.hist))
	for i := range r.hist {
		st.Buckets[i] = r.hist[i].Load()
	}
	if n == 0 {
		return st
	}
	window := make([]int64, n)
	for i := 0; i < n; i++ {
		window[i] = r.ring[i].Load()
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	quantile := func(q float64) float64 {
		idx := int(q * float64(n-1))
		return float64(window[idx]) / 1e3
	}
	st.P50Micros = quantile(0.50)
	st.P95Micros = quantile(0.95)
	st.P99Micros = quantile(0.99)
	return st
}
