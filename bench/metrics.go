package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	contextrank "repro"
	"repro/internal/serve/shard"
)

// metricDef names one reported metric. The two lists below are the
// benchmark's whole vocabulary; bench_test.go holds them equal to
// BENCHMARK.json, and report refuses to print a run that lacks one.
type metricDef struct {
	name, unit string
}

// e2eDef adds what BENCHMARK.json says about an end-to-end metric. bound is
// the share of the parent's median by which the metric may worsen; -agree
// applies it too. The timing bounds sit at the contract's ceiling: on this
// shared 2-vCPU sandbox ten runs of identical code spread 1-8% per cell, but
// the driver's host has been two to three times noisier (README, "Noise
// notes"), and a bound the benchmark cannot repeat within gates nothing.
type e2eDef struct {
	metricDef
	better string
	bound  float64
}

var endToEnd = []e2eDef{
	{metricDef{"setup_s", "s"}, "lower", 0.25},
	{metricDef{"throughput_ops_s", "1/s"}, "higher", 0.25},
	{metricDef{"rank_floor_us", "us"}, "lower", 0.25},
	{metricDef{"poll_floor_us", "us"}, "lower", 0.25},
	{metricDef{"apply_floor_us", "us"}, "lower", 0.25},
	{metricDef{"push_floor_us", "us"}, "lower", 0.25},
	{metricDef{"cpu_us_per_op", "us"}, "lower", 0.25},
	{metricDef{"rss_mb", "MB"}, "lower", 0.15},
}

var perLayer = []metricDef{
	{"net.rank_self_us", "us"},
	{"net.apply_self_us", "us"},
	{"serve.handler.rank_self_us", "us"},
	{"serve.handler.apply_self_us", "us"},
	{"serve.handler.write_self_us", "us"},
	{"shard.rank_us", "us"},
	{"shard.poll_us", "us"},
	{"shard.set_session_us", "us"},
	{"shard.assert_us", "us"},
	{"shard.broadcast_writes", "count"},
	{"shard.broadcast_mean_us", "us"},
	{"serve.server.rank_hit_us", "us"},
	{"serve.rankcache.hits", "count"},
	{"serve.rankcache.misses", "count"},
	{"serve.rankcache.hit_ratio", "ratio"},
	{"serve.rankcache.evictions", "count"},
	{"serve.plancache.hits", "count"},
	{"serve.plancache.refreshed", "count"},
	{"serve.plancache.compiles", "count"},
	{"core.plan.compile_us", "us"},
	{"core.plan.refresh_us", "us"},
	{"core.plan.rank_us", "us"},
	{"core.plan.rank_expr_us", "us"},
	{"core.plan.doccache_hit_ratio", "ratio"},
	{"core.plan.scratch_new_ratio", "ratio"},
	{"journal.appends", "count"},
	{"journal.fsyncs", "count"},
	{"journal.bytes", "B"},
	{"journal.fsyncs_per_mutation", "ratio"},
	{"journal.bytes_per_mutation", "B"},
	{"journal.append_us", "us"},
	{"serve.subscription.evals", "count"},
	{"serve.subscription.skipped", "count"},
	{"serve.subscription.events", "count"},
	{"serve.subscription.lagged", "count"},
	{"serve.subscription.evals_per_mutation", "ratio"},
	{"serve.subscription.push_lag_p50_us", "us"},
	{"event.space_len_start", "count"},
	{"event.space_len_end", "count"},
	{"recovery.records", "count"},
	{"recovery.us_per_record", "us"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"pass.mean_ops_s", "1/s"},
	{"pass.mean_cpu_us_per_op", "us"},
	{"setup.median_s", "s"},
	{"recovery.fastest_s", "s"},
	{"recovery.median_s", "s"},
	{"http.rank_p50_us", "us"},
	{"http.rank_p99_us", "us"},
	{"http.poll_p50_us", "us"},
	{"http.poll_p99_us", "us"},
	{"http.apply_p50_us", "us"},
	{"http.apply_p99_us", "us"},
	{"http.push_p50_us", "us"},
	{"http.push_p99_us", "us"},
	{"http.write_p50_us", "us"},
	{"http.write_p99_us", "us"},
	{"trace.overhead_pct", "%"},
}

// quantile returns the q-quantile of ns samples in microseconds (nearest
// rank on the sorted copy); 0 when there are none — a workload without W
// has no write latency.
func quantile(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	sorted := append([]int64(nil), ns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return float64(sorted[int(q*float64(len(sorted)-1))]) / 1e3
}

func median(ns []int64) float64 { return quantile(ns, 0.5) }

// floorRank is which sample a floor reads: the third best, not the best. A
// pass now and then holds one or two freak samples well below the rest (a
// poll that found its plan already refreshed, a cycle no collection touched),
// and whether a run has one is luck; the third best is within a few percent
// of the best and repeats twice as well (README, "Floors, not middles").
const floorRank = 3

// floorOf returns the floorRank-th smallest value (the largest of fewer: a
// smoke run may hold one cycle); 0 when there are none.
func floorOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	return sorted[min(floorRank, len(sorted))-1]
}

func medianOf(vs []float64) float64 {
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user plus system CPU time. The load generator
// runs in this process, so it is included (README, "In-process").
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// counters is every cumulative counter the per-layer table is a delta of.
// The timed pass is interrupted by cold set-ups and recoveries, and some of
// the counters are process-wide, so the run reads them at both ends of every
// uninterrupted stretch and sums the differences.
type counters [numCounters]float64

const (
	cCacheHits = iota
	cCacheMisses
	cCacheEvicted
	cPlanHits
	cPlanMisses
	cPlanRefreshed
	cBroadcastWrites
	cBroadcastMicros
	cScratchGets
	cScratchNews
	cDocHits
	cDocMisses
	cJournalAppends
	cJournalFsyncs
	cJournalBytes // file-size growth: compaction rewrites the file, so this is what was left on disk, not what was written
	cSubEvals
	cSubSkipped
	cSubEvents
	cSubLagged
	cAllocBytes
	cGCCycles
	cGCCPU    // seconds
	cTotalCPU // seconds, all Go-runtime-accounted CPU
	numCounters
)

func readCounters(c *shard.Coordinator) counters {
	st := c.Stats()
	hot := contextrank.ReadHotPathStats()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cpu := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(cpu)
	return counters{
		cCacheHits:       float64(st.Cache.Hits),
		cCacheMisses:     float64(st.Cache.Misses),
		cCacheEvicted:    float64(st.Cache.Evicted),
		cPlanHits:        float64(st.Plans.Hits),
		cPlanMisses:      float64(st.Plans.Misses),
		cPlanRefreshed:   float64(st.Plans.Refreshed),
		cBroadcastWrites: float64(st.Broadcast.Writes),
		cBroadcastMicros: st.Broadcast.MeanMicros * float64(st.Broadcast.Writes),
		cScratchGets:     float64(hot.ScratchGets),
		cScratchNews:     float64(hot.ScratchNews),
		cDocHits:         float64(hot.DocCacheHits),
		cDocMisses:       float64(hot.DocCacheMisses),
		cJournalAppends:  float64(st.Journal.Appends),
		cJournalFsyncs:   float64(st.Journal.Fsyncs),
		cJournalBytes:    float64(st.Journal.Bytes),
		cSubEvals:        float64(st.Subs.Evals),
		cSubSkipped:      float64(st.Subs.Skipped),
		cSubEvents:       float64(st.Subs.Events),
		cSubLagged:       float64(st.Subs.Lagged),
		cAllocBytes:      float64(mem.TotalAlloc),
		cGCCycles:        float64(mem.NumGC),
		cGCCPU:           cpu[0].Value.Float64(),
		cTotalCPU:        cpu[1].Value.Float64(),
	}
}

// addStretch adds what one stretch of the pass counted: to minus from.
func (c *counters) addStretch(from, to counters) {
	for i := range c {
		c[i] += to[i] - from[i]
	}
}

// layerCounts fills the per-layer metrics that are counts over the timed
// pass. mutations is the number of journaled mutations the pass
// acknowledged (context PUTs plus vocabulary writes).
func layerCounts(m map[string]float64, d counters, ops, mutations int) {
	m["serve.rankcache.hits"] = d[cCacheHits]
	m["serve.rankcache.misses"] = d[cCacheMisses]
	m["serve.rankcache.hit_ratio"] = ratio(d[cCacheHits], d[cCacheHits]+d[cCacheMisses])
	m["serve.rankcache.evictions"] = d[cCacheEvicted]

	m["serve.plancache.hits"] = d[cPlanHits]
	m["serve.plancache.refreshed"] = d[cPlanRefreshed]
	m["serve.plancache.compiles"] = d[cPlanMisses] - d[cPlanRefreshed]

	m["shard.broadcast_writes"] = d[cBroadcastWrites]
	m["shard.broadcast_mean_us"] = ratio(d[cBroadcastMicros], d[cBroadcastWrites])

	m["core.plan.doccache_hit_ratio"] = ratio(d[cDocHits], d[cDocHits]+d[cDocMisses])
	m["core.plan.scratch_new_ratio"] = ratio(d[cScratchNews], d[cScratchGets])

	m["journal.appends"] = d[cJournalAppends]
	m["journal.fsyncs"] = d[cJournalFsyncs]
	m["journal.bytes"] = d[cJournalBytes]
	m["journal.fsyncs_per_mutation"] = ratio(d[cJournalFsyncs], float64(mutations))
	m["journal.bytes_per_mutation"] = ratio(d[cJournalBytes], float64(mutations))

	m["serve.subscription.evals"] = d[cSubEvals]
	m["serve.subscription.skipped"] = d[cSubSkipped]
	m["serve.subscription.events"] = d[cSubEvents]
	m["serve.subscription.lagged"] = d[cSubLagged]
	m["serve.subscription.evals_per_mutation"] = ratio(d[cSubEvals], float64(mutations))

	m["runtime.alloc_bytes_per_op"] = ratio(d[cAllocBytes], float64(ops))
	m["runtime.gc_cycles"] = d[cGCCycles]
	m["runtime.gc_cpu_fraction"] = ratio(d[cGCCPU], d[cTotalCPU])
}
