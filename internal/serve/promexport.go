package serve

import (
	"repro/internal/serve/journal"
	"repro/internal/serve/metrics"
)

// RegisterBackendMetrics exposes a serving backend's counters as
// carserve_* Prometheus series. The per-shard series carry shard "0": a
// backend holds one replica, and its Stats.Shards entry (a daemon.Daemon's)
// or, on a bare Server, its own counters are that shard; the durable
// series (checkpoints, recovery, broadcast) come from the blocks only the
// daemon's Stats fills. The whole export is one
// lock-free Stats() call per scrape — no second bookkeeping layer that
// could drift from /v1/stats, and no scrape-time contention with rank
// traffic (the PR-3 discipline).
func RegisterBackendMetrics(reg *metrics.Registry, b Backend) {
	reg.Collect(func(w *metrics.Writer) {
		st := b.Stats()
		one := st
		if len(st.Shards) > 0 {
			one = st.Shards[0]
		}
		shard := func(name string, v float64) { w.Sample(name, v, "shard", "0") }

		w.Family("carserve_uptime_seconds", "gauge", "Seconds since the backend started.")
		w.Sample("carserve_uptime_seconds", st.UptimeSeconds)
		w.Family("carserve_epoch", "gauge", "Current facade epoch (vocabulary/data version).")
		w.Sample("carserve_epoch", float64(st.Epoch))
		w.Family("carserve_rules", "gauge", "Registered preference rules.")
		w.Sample("carserve_rules", float64(st.Rules))

		w.Family("carserve_sessions", "gauge", "Live sessions per shard.")
		shard("carserve_sessions", float64(one.Sessions))
		w.Family("carserve_events", "gauge", "Declared basic events per shard (growth = event leak).")
		shard("carserve_events", float64(one.Events))
		w.Family("carserve_rank_requests_total", "counter", "Rank requests (single + batch items) per shard.")
		shard("carserve_rank_requests_total", float64(one.Requests))

		w.Family("carserve_rank_latency_seconds", "histogram", "Rank call latency per shard.")
		if len(one.Latency.Buckets) > 0 {
			// The recorder tracks an exact all-time sum in microseconds via
			// the mean; reconstruct seconds for the histogram _sum line.
			sum := one.Latency.MeanMicros * float64(one.Latency.Count) / 1e6
			w.Histogram("carserve_rank_latency_seconds", RankLatencyBuckets,
				one.Latency.Buckets, sum, "shard", "0")
		}

		exportCache(w, "carserve_rank_cache", "rank-result", one.Cache)
		w.Family("carserve_rank_cache_revalidated_total", "counter", "Rank-cache hits served after a write by re-scoring only the candidates it moved.")
		w.Sample("carserve_rank_cache_revalidated_total", float64(one.Cache.Revalidated), "shard", "0")
		exportCache(w, "carserve_plan_cache", "compiled-rank-plan", one.Plans)

		if one.Journal != nil {
			exportJournal(w, *one.Journal)
		}

		if st.Checkpoints != nil {
			w.Family("carserve_checkpoints_total", "counter", "Completed background checkpoints.")
			w.Sample("carserve_checkpoints_total", float64(st.Checkpoints.Count))
			w.Family("carserve_checkpoint_failures_total", "counter", "Failed background checkpoint attempts.")
			w.Sample("carserve_checkpoint_failures_total", float64(st.Checkpoints.Failures))
			w.Family("carserve_checkpoint_last_unixtime", "gauge", "Completion time of the last successful checkpoint.")
			w.Sample("carserve_checkpoint_last_unixtime", float64(st.Checkpoints.LastUnix))
			w.Family("carserve_checkpoint_last_duration_seconds", "gauge", "Wall time of the last successful checkpoint.")
			w.Sample("carserve_checkpoint_last_duration_seconds", st.Checkpoints.LastDurationMicros/1e6)
			w.Family("carserve_checkpoint_last_seq", "gauge", "Highest journal sequence the last checkpoint covered.")
			w.Sample("carserve_checkpoint_last_seq", float64(st.Checkpoints.LastSeq))
		}

		if st.Recovery != nil {
			w.Family("carserve_recovery_records_total", "counter", "WAL records read during boot-time recovery.")
			w.Sample("carserve_recovery_records_total", float64(st.Recovery.Records))
			w.Family("carserve_recovery_applied_total", "counter", "Recovery records re-applied, by kind.")
			w.Sample("carserve_recovery_applied_total", float64(st.Recovery.Users), "kind", "session")
			w.Sample("carserve_recovery_applied_total", float64(st.Recovery.VocabApplied()), "kind", "vocab")
			w.Family("carserve_recovery_skipped_total", "counter", "Recovery records skipped, by reason.")
			w.Sample("carserve_recovery_skipped_total", float64(st.Recovery.SkippedCheckpoint), "reason", "checkpoint_covered")
			w.Sample("carserve_recovery_skipped_total", float64(st.Recovery.SkippedDuplicate), "reason", "duplicate_broadcast")
			w.Family("carserve_recovery_failed_total", "counter", "Recovery records whose re-apply failed (preserved in the WAL).")
			w.Sample("carserve_recovery_failed_total", float64(st.Recovery.Failed))
		}

		if st.HotPath != nil {
			// Process-global rank hot-path counters (see core.HotPathStats).
			hp := st.HotPath
			w.Family("carserve_rank_scratch_total", "counter", "Rank scratch-arena acquisitions, by provenance (fresh = pool had to allocate).")
			w.Sample("carserve_rank_scratch_total", float64(hp.ScratchGets-hp.ScratchNews), "result", "pooled")
			w.Sample("carserve_rank_scratch_total", float64(hp.ScratchNews), "result", "fresh")
			w.Family("carserve_doc_dist_cache_total", "counter", "Plan document-distribution cache lookups.")
			w.Sample("carserve_doc_dist_cache_total", float64(hp.DocCacheHits), "result", "hit")
			w.Sample("carserve_doc_dist_cache_total", float64(hp.DocCacheMisses), "result", "miss")
		}

		if st.Broadcast != nil {
			w.Family("carserve_broadcast_writes_total", "counter", "Vocabulary writes (declare, assert, rules, exec).")
			w.Sample("carserve_broadcast_writes_total", float64(st.Broadcast.Writes))
			w.Family("carserve_broadcast_mean_seconds", "gauge", "Mean vocabulary-write wall time, apply to ack.")
			w.Sample("carserve_broadcast_mean_seconds", st.Broadcast.MeanMicros/1e6)
			w.Family("carserve_broadcast_max_seconds", "gauge", "Worst vocabulary-write wall time since start.")
			w.Sample("carserve_broadcast_max_seconds", st.Broadcast.MaxMicros/1e6)
		}

		if st.Subs != nil {
			w.Family("carserve_subscriptions_active", "gauge", "Registered standing rank subscriptions.")
			w.Sample("carserve_subscriptions_active", float64(st.Subs.Active))
			w.Family("carserve_subscription_events_total", "counter", "Subscription events pushed (snapshots + deltas + errors).")
			w.Sample("carserve_subscription_events_total", float64(st.Subs.Events))
			w.Family("carserve_subscription_evals_total", "counter", "Subscription re-rank evaluations, by outcome (skipped = state key unchanged).")
			w.Sample("carserve_subscription_evals_total", float64(st.Subs.Evals), "result", "evaluated")
			w.Sample("carserve_subscription_evals_total", float64(st.Subs.Skipped), "result", "skipped")
			w.Family("carserve_subscription_lag_events_total", "counter", "Events dropped because a stream consumer was behind (each run ends in a resync).")
			w.Sample("carserve_subscription_lag_events_total", float64(st.Subs.Lagged))
		}

		exportHealth(w, st, one)
	})
}

// exportHealth emits the failure-domain series: the shard's state gauge,
// the recovered-panic counter and the degraded-mode counters.
func exportHealth(w *metrics.Writer, st, one Stats) {
	w.Family("carserve_panics_total", "counter", "Panics recovered by the serving stack (per-request isolation) instead of killing the daemon.")
	w.Sample("carserve_panics_total", float64(PanicsTotal()))

	w.Family("carserve_shard_health", "gauge", "Shard health by state (1 = the shard is in that state).")
	state := StateHealthy
	if one.Health != nil && one.Health.State != "" {
		state = one.Health.State
	}
	for _, candidate := range []string{StateHealthy, StateDegraded} {
		v := 0.0
		if state == candidate {
			v = 1.0
		}
		w.Sample("carserve_shard_health", v, "shard", "0", "state", candidate)
	}

	if st.Health != nil {
		w.Family("carserve_degraded_recoveries_total", "counter", "Degraded-to-healthy transitions (the disk came back and the WAL re-armed).")
		w.Sample("carserve_degraded_recoveries_total", float64(st.Health.Recoveries))
		w.Family("carserve_unjournaled_tail_records", "gauge", "Applied-but-unjournaled records awaiting re-journal on disk recovery.")
		w.Sample("carserve_unjournaled_tail_records", float64(st.Health.UnjournaledTail))
	}
}

// exportCache emits one cache's hit/miss/evict counters and occupancy +
// hit-ratio gauges under the given series prefix.
func exportCache(w *metrics.Writer, prefix, what string, c CacheStats) {
	w.Family(prefix+"_hits_total", "counter", "Hits in the "+what+" cache.")
	w.Sample(prefix+"_hits_total", float64(c.Hits), "shard", "0")
	w.Family(prefix+"_misses_total", "counter", "Misses in the "+what+" cache.")
	w.Sample(prefix+"_misses_total", float64(c.Misses), "shard", "0")
	w.Family(prefix+"_evicted_total", "counter", "Evictions from the "+what+" cache.")
	w.Sample(prefix+"_evicted_total", float64(c.Evicted), "shard", "0")
	w.Family(prefix+"_size", "gauge", "Entries in the "+what+" cache.")
	w.Sample(prefix+"_size", float64(c.Size), "shard", "0")
	w.Family(prefix+"_hit_ratio", "gauge", "Hit fraction of the "+what+" cache since start.")
	w.Sample(prefix+"_hit_ratio", c.HitRate, "shard", "0")
}

// exportJournal emits the WAL counters and the group-commit batch-size
// histogram.
func exportJournal(w *metrics.Writer, j journal.Stats) {
	metric := func(name, typ, help string, v float64) {
		w.Family(name, typ, help)
		w.Sample(name, v, "shard", "0")
	}
	metric("carserve_journal_appends_total", "counter", "Acknowledged session-WAL records.", float64(j.Appends))
	metric("carserve_journal_fsyncs_total", "counter", "Session-WAL file syncs.", float64(j.Fsyncs))
	metric("carserve_journal_compactions_total", "counter", "Session-WAL live-record rewrites.", float64(j.Compactions))
	metric("carserve_journal_compact_failures_total", "counter", "Failed session-WAL compaction attempts.", float64(j.CompactFailures))
	metric("carserve_journal_bytes", "gauge", "Session-WAL logical size (frames, not the pre-sized slack).", float64(j.Bytes))
	metric("carserve_journal_live_records", "gauge", "Users with a live WAL record.", float64(j.LiveRecords))
	metric("carserve_journal_vocab_records", "gauge", "Vocabulary records awaiting a checkpoint.", float64(j.VocabRecords))
	metric("carserve_journal_vocab_bytes", "gauge", "WAL bytes of vocabulary records since the last checkpoint (the size trigger's input).", float64(j.VocabBytes))
	metric("carserve_journal_checkpoint_seq", "gauge", "Highest journal sequence covered by a checkpoint.", float64(j.CheckpointSeq))
	degraded := 0.0
	if j.Degraded {
		degraded = 1.0
	}
	metric("carserve_journal_degraded", "gauge", "1 while the shard's WAL is sticky-failed and mutations are rejected.", degraded)
	metric("carserve_journal_resets_total", "counter", "Successful WAL re-arms after a sticky write error (Reset).", float64(j.Resets))

	w.Family("carserve_journal_batch_records", "histogram",
		"Records per group commit: mass above 1 means concurrent applies share fsyncs.")
	if len(j.BatchSizes) > 0 {
		// _sum is total records = Appends; _count is Batches.
		w.Histogram("carserve_journal_batch_records", journal.BatchSizeBuckets, j.BatchSizes, float64(j.Appends), "shard", "0")
	}
}

// RegisterAdmissionMetrics exposes the admission controller's state.
// Safe to call with adm == nil: the series are emitted as zeros so
// dashboards and alerts need not special-case unlimited deployments.
func RegisterAdmissionMetrics(reg *metrics.Registry, adm *Admission) {
	reg.Collect(func(w *metrics.Writer) {
		st := adm.Stats()
		w.Family("carserve_inflight_requests", "gauge", "Requests currently executing past the admission gate.")
		w.Sample("carserve_inflight_requests", float64(st.InFlight))
		w.Family("carserve_queued_requests", "gauge", "Requests waiting for an in-flight slot.")
		w.Sample("carserve_queued_requests", float64(st.Queued))
		w.Family("carserve_admitted_total", "counter", "Requests admitted past the gate.")
		w.Sample("carserve_admitted_total", float64(st.Admitted))
		w.Family("carserve_shed_total", "counter", "Requests shed with 429, by reason.")
		w.Sample("carserve_shed_total", float64(st.ShedQueue), "reason", "queue_full")
		w.Sample("carserve_shed_total", float64(st.ShedUser), "reason", "rate_limit")
	})
}
