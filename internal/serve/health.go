package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/journal"
)

// Health states, as reported in Stats.Health and /healthz. A server is
// degraded when its WAL is sticky-failed: it keeps serving ranks from
// memory but rejects mutations (503 + Retry-After) until a disk probe
// re-arms the journal. Quarantined is a coordinator-level state: the
// shard failed a broadcast apply (or panicked) and its users are
// rerouted to healthy replicas until background repair replays the
// missed records and readmits it.
const (
	StateHealthy     = "healthy"
	StateDegraded    = "degraded"
	StateQuarantined = "quarantined"
)

// ErrDegraded marks a mutation rejected while the backend's journal is
// degraded. The handler maps it to 503 with a Retry-After.
var ErrDegraded = errors.New("serve: journal degraded; mutations temporarily rejected (reads still served)")

// ErrQuarantined marks an operation refused because a shard is
// quarantined and its repair has not completed yet. It originates in the
// shard coordinator (which aliases this sentinel — serve cannot import
// shard); it lives here so the error envelope can map it to the
// "quarantined" code.
var ErrQuarantined = errors.New("shard: quarantined shard pending repair")

// ErrNotJournaled marks the in-flight mutations that hit the disk fault
// itself: applied in memory, never acknowledged as durable. The handler
// maps these to 503 + Retry-After exactly like ErrDegraded — the write
// re-applies idempotently and the disk may come back, so a 4xx "give
// up" status would be the wrong client guidance. Once degraded mode
// engages, the record sits on the unjournaled tail and ProbeDisk
// re-journals it on recovery.
var ErrNotJournaled = errors.New("serve: applied but not journaled")

// notJournaled tags a journal-write failure so both ErrNotJournaled and
// the underlying disk error survive errors.Is, without changing the
// human-readable message.
type notJournaled struct{ jerr error }

func (e notJournaled) Error() string   { return e.jerr.Error() }
func (e notJournaled) Unwrap() []error { return []error{ErrNotJournaled, e.jerr} }

// maxUnjournaledTail bounds the applied-but-unjournaled records kept for
// re-journaling on recovery. Mutations are rejected the moment degraded
// mode engages, so the tail only holds the handful of writes that were
// in flight when the disk failed; the cap is a backstop, with drops
// counted.
const maxUnjournaledTail = 4096

// diskHealth is a server's journal failure domain: the degraded flag,
// why and since when, and the tail of records that were applied in
// memory but never made the WAL. Those records' callers saw "applied
// but not journaled" errors — they hold no durability claim — but the
// in-memory state contains them, so recovery must re-journal them
// (Preserved-style) or a later crash would replay a WAL that disagrees
// with the state the process kept serving.
type diskHealth struct {
	enabled    bool // degrade-on-disk-error policy armed at construction
	degraded   atomic.Bool
	sinceUnix  atomic.Int64
	reason     atomic.Pointer[string]
	recoveries atomic.Int64
	tailLen    atomic.Int64
	dropped    atomic.Int64

	mu   sync.Mutex
	tail []journal.Record
}

// checkWritable gates a mutation: ErrDegraded while the journal is down.
func (h *diskHealth) checkWritable() error {
	if h == nil || !h.degraded.Load() {
		return nil
	}
	return ErrDegraded
}

// degradedNow reports whether degraded mode is engaged.
func (h *diskHealth) degradedNow() bool { return h != nil && h.degraded.Load() }

// noteJournalError records an applied-but-unjournaled mutation and, when
// the policy is armed, engages degraded mode.
func (h *diskHealth) noteJournalError(rec journal.Record, err error) {
	if h == nil || !h.enabled {
		return
	}
	h.mu.Lock()
	if len(h.tail) < maxUnjournaledTail {
		h.tail = append(h.tail, rec)
		h.tailLen.Store(int64(len(h.tail)))
	} else {
		h.dropped.Add(1)
	}
	h.mu.Unlock()
	if h.degraded.CompareAndSwap(false, true) {
		reason := err.Error()
		h.reason.Store(&reason)
		h.sinceUnix.Store(time.Now().Unix())
	}
}

// takeTail removes and returns the unjournaled tail in append order.
func (h *diskHealth) takeTail() []journal.Record {
	h.mu.Lock()
	tail := h.tail
	h.tail = nil
	h.tailLen.Store(0)
	h.mu.Unlock()
	return tail
}

// pushBack restores records takeTail removed after a failed re-journal.
func (h *diskHealth) pushBack(recs []journal.Record) {
	if len(recs) == 0 {
		return
	}
	h.mu.Lock()
	h.tail = append(recs, h.tail...)
	h.tailLen.Store(int64(len(h.tail)))
	h.mu.Unlock()
}

// clear leaves degraded mode.
func (h *diskHealth) clear() {
	if h.degraded.CompareAndSwap(true, false) {
		h.recoveries.Add(1)
		h.reason.Store(nil)
		h.sinceUnix.Store(0)
	}
}

// HealthInfo is the health block of Stats: one server's (or, on the
// aggregate, a whole coordinator's) failure-domain state.
type HealthInfo struct {
	// State is healthy, degraded or quarantined.
	State string `json:"state"`
	// Reason is the error that caused a non-healthy state.
	Reason string `json:"reason,omitempty"`
	// SinceUnix is when the state was entered (unix seconds).
	SinceUnix int64 `json:"since_unix,omitempty"`
	// UnjournaledTail is how many applied-but-unjournaled records await
	// re-journaling on disk recovery; TailDropped counts records the
	// bounded tail had to drop.
	UnjournaledTail int   `json:"unjournaled_tail,omitempty"`
	TailDropped     int64 `json:"tail_dropped,omitempty"`
	// Recoveries counts degraded→healthy transitions (disk came back).
	Recoveries int64 `json:"recoveries,omitempty"`
	// DegradedShards / QuarantinedShards list non-healthy shard indexes
	// (aggregate only).
	DegradedShards    []int `json:"degraded_shards,omitempty"`
	QuarantinedShards []int `json:"quarantined_shards,omitempty"`
	// Quarantines / Repairs count shards quarantined and repaired+
	// readmitted since boot (aggregate only).
	Quarantines int64 `json:"quarantines,omitempty"`
	Repairs     int64 `json:"repairs,omitempty"`
	// Panics is the process-wide recovered-panic count (aggregate only).
	Panics int64 `json:"panics,omitempty"`
}

// healthInfo snapshots one server's health block (lock-free).
func (h *diskHealth) healthInfo() *HealthInfo {
	info := &HealthInfo{State: StateHealthy}
	if h == nil {
		return info
	}
	info.Recoveries = h.recoveries.Load()
	info.TailDropped = h.dropped.Load()
	if h.degraded.Load() {
		info.State = StateDegraded
		if r := h.reason.Load(); r != nil {
			info.Reason = *r
		}
		info.SinceUnix = h.sinceUnix.Load()
		info.UnjournaledTail = int(h.tailLen.Load())
	}
	return info
}

// panicsTotal counts panics recovered anywhere in the serving stack —
// per-request recovery in the HTTP handler, per-shard isolation in the
// broadcast fan-out — instead of killing the daemon. Process-global so
// every layer feeds one carserve_panics_total.
var panicsTotal atomic.Int64

// NotePanic records one recovered panic.
func NotePanic() { panicsTotal.Add(1) }

// PanicsTotal reads the recovered-panic counter.
func PanicsTotal() int64 { return panicsTotal.Load() }

// ProbeDisk attempts to leave degraded mode: it re-arms the journal
// (ResetAfter truncates the unacknowledged tail and fsyncs as a write
// probe) and re-journals the applied-but-unjournaled records with
// Preserved set — checkpoint-exempt, exactly like recovery's preserve
// path — before accepting mutations again. Returns nil when the server
// was not degraded; the error (and continued degraded mode) when the
// disk is still broken.
func (s *Server) ProbeDisk() error {
	if !s.health.degradedNow() {
		return nil
	}
	j := s.wal.Load()
	if j == nil {
		s.health.clear()
		return nil
	}
	if err := j.ResetAfter(nil); err != nil {
		return err
	}
	for {
		tail := s.health.takeTail()
		if len(tail) == 0 {
			break
		}
		for k, rec := range tail {
			// Preserved = checkpoint-exempt, exactly like recovery's
			// preserve path. The record keeps its BID: on a later replay
			// the healthy shards' WALs carry the same broadcast record,
			// and the shared BID is what deduplicates them.
			rec.Preserved = true
			if err := j.Append(rec); err != nil {
				s.health.pushBack(tail[k:])
				return err
			}
		}
	}
	s.health.clear()
	return nil
}

// Degraded reports whether the server is in read-only degraded mode.
func (s *Server) Degraded() bool { return s.health.degradedNow() }
