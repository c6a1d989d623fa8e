// Package journal is the durable write-ahead log of the serving layer: an
// append-only, CRC-framed record stream covering every mutation the
// serving layer acknowledges — session applies and drops (OpSet/OpDrop),
// standing rank subscriptions (OpSubscribe/OpUnsubscribe, retired by their
// in-log successor exactly like session records) and the vocabulary/data
// writes (OpDeclare, OpAssert, OpAddRules, OpRemoveRule, OpExec). Every
// acknowledged mutation is fsynced to the
// journal before the acknowledgement, inside the same critical section
// that applied it, so journal order equals apply order and boot-time
// replay reconstructs exactly the acknowledged state by re-applying each
// record through the ordinary apply path — ctx_* events and context
// fingerprints are rebuilt, not restored, and therefore cannot drift from
// what a fresh apply would produce.
//
// Session records and vocabulary records retire differently. A session
// Set is superseded by the user's next Set (or Drop), so the journal can
// drop the old record on its own (see Compaction). A vocabulary record
// has no in-log successor: it is dead only once a *checkpoint* — a full
// snapshot of the durable state — covers it. Checkpoint(seq) tells the
// journal that all vocabulary records with Seq <= seq are now persisted
// elsewhere; they are dropped from the retained set and the file is
// rewritten, so WAL size returns to ~live-session size after every
// checkpoint. Records carrying Preserved (re-journaled records whose
// apply failed during recovery) and records with an unknown Op are exempt
// from checkpoint truncation: the journal is their only copy.
//
// # File format
//
// A journal file is an 8-byte magic header followed by frames:
//
//	[4B little-endian payload length][4B CRC32-C of payload][payload]
//
// The payload is the JSON encoding of Record. The CRC covers only the
// payload; the length field is additionally sanity-bounded (maxRecordSize)
// so a corrupt length cannot force a huge allocation. Replay stops at the
// first frame that is short, over-long or CRC-mismatched: everything
// before it is recovered, the tail is reported as torn. A journal opened
// for appending truncates such a torn tail away first, so a crash mid
// write never poisons later appends.
//
// # Group commit
//
// All appends go through one writer goroutine. Submit enqueues the
// marshaled record and returns a wait function; the writer drains every
// queued record, writes them in one buffered pass and calls fsync once,
// then releases all their waiters. Concurrent session applies on one shard
// therefore share a single fsync (the dominant cost), and the rank path —
// which never journals — is untouched.
//
// # Compaction
//
// The journal tracks, per user, the frame of the latest live Set record
// (a Drop removes the user), plus every vocabulary record not yet covered
// by a checkpoint. Once the file holds more dead records (superseded
// Sets, Drops, Sets of since-dropped users, checkpointed vocabulary) than
// retained ones — and at least Options.CompactMinRecords in total — the
// writer rewrites the file from the retained set alone, in original
// sequence order, to a temporary file that is fsynced and renamed over
// the journal. A Checkpoint forces this rewrite immediately. Under
// arbitrary churn with periodic checkpoints the file is therefore bounded
// by the live session population plus one checkpoint interval's
// vocabulary writes, and replay cost stays proportional to that state.
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// magic identifies a journal file (and its framing version). Bump the
// trailing digit on incompatible frame changes.
var magic = []byte("CARWAL1\n")

// maxRecordSize bounds one frame's payload. Session measurement lists are
// small; the bound exists so a corrupt length field makes replay stop at a
// torn tail instead of attempting a multi-gigabyte allocation.
const maxRecordSize = 16 << 20

// frameOverhead is the per-record framing cost: length + CRC.
const frameOverhead = 8

// castagnoli is the CRC-32C table (the iSCSI polynomial, hardware
// accelerated on amd64/arm64 — the usual WAL checksum choice).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Op is the journaled operation.
type Op uint8

const (
	// OpSet replaces the user's session measurements.
	OpSet Op = 1
	// OpDrop ends the user's session.
	OpDrop Op = 2
	// OpDeclare adds concepts, roles and/or subsumption axioms.
	OpDeclare Op = 3
	// OpAssert adds concept/role assertions (probabilistic facts).
	OpAssert Op = 4
	// OpAddRules adds preference rules (by source text).
	OpAddRules Op = 5
	// OpRemoveRule removes one preference rule by name.
	OpRemoveRule Op = 6
	// OpExec runs a raw SQL DML/DDL statement against the store.
	OpExec Op = 7
	// OpSubscribe registers (or replaces) a standing rank subscription.
	OpSubscribe Op = 8
	// OpUnsubscribe removes a standing rank subscription by id.
	OpUnsubscribe Op = 9
)

// IsVocab reports whether the op mutates durable vocabulary/data state.
// Session and subscription ops are not vocabulary: they are superseded by
// later records for the same key, so the journal retires them on its own.
// Vocabulary records are retired by checkpoints, not by later records. The
// range is bounded explicitly — ops added after OpExec (subscriptions) must
// opt in here, not inherit vocab semantics by position.
func (op Op) IsVocab() bool { return op >= OpDeclare && op <= OpExec }

// Measurement is the journal's own wire shape for one session measurement.
// It mirrors situation.Measurement but carries explicit JSON tags so the
// on-disk format is stable against field renames in the engine.
type Measurement struct {
	Concept    string  `json:"c"`
	Individual string  `json:"i,omitempty"`
	Prob       float64 `json:"p"`
	Exclusive  string  `json:"x,omitempty"`
	Source     string  `json:"s,omitempty"`
}

// SubDecl is one subsumption axiom (Sub ⊑ Super) in a declare record.
type SubDecl struct {
	Sub   string `json:"sub"`
	Super string `json:"super"`
}

// ConceptAssert is one concept membership assertion in an assert record.
type ConceptAssert struct {
	Concept string  `json:"c"`
	ID      string  `json:"id"`
	Prob    float64 `json:"p"`
}

// RoleAssert is one role (binary relation) assertion in an assert record.
type RoleAssert struct {
	Role string  `json:"r"`
	Src  string  `json:"src"`
	Dst  string  `json:"dst"`
	Prob float64 `json:"p"`
}

// SubSpec is the journaled shape of one standing rank subscription: the
// rank request it re-evaluates on every context change. Target is DL
// source text (re-parsed on replay through the ordinary parse path, like
// rule sources).
type SubSpec struct {
	Target     string   `json:"target"`
	Candidates []string `json:"cands,omitempty"`
	TopK       int      `json:"top_k,omitempty"`
	Limit      int      `json:"limit,omitempty"`
	Threshold  *float64 `json:"threshold,omitempty"`
}

// Record is one journaled operation. Seq is assigned by the journal at
// submit time and increases monotonically within a file; compaction
// preserves the original Seq values (and their order), so a replayed
// record's Seq always reflects its original apply order. Which payload
// fields are meaningful depends on Op; unused fields are omitted from the
// wire encoding.
type Record struct {
	Op  Op     `json:"op"`
	Seq uint64 `json:"seq"`
	// BID tags a broadcast vocabulary write with a coordinator-wide id.
	// Every shard journals the same record with the same BID, so recovery
	// — which replays every shard's WAL through the broadcast apply path —
	// can apply each broadcast write exactly once. Zero means untagged
	// (unsharded server, or legacy records).
	BID uint64 `json:"bid,omitempty"`
	// User is the session owner (OpSet/OpDrop only).
	User         string        `json:"user,omitempty"`
	Measurements []Measurement `json:"ms,omitempty"`
	// Fingerprint is the context fingerprint the serving layer computed
	// for this Set — informational: replay recomputes it through the
	// ordinary apply path and can cross-check against this value.
	Fingerprint string `json:"fp,omitempty"`
	// Epoch is the facade epoch at apply time (informational).
	Epoch int64 `json:"epoch,omitempty"`
	// Concepts/Roles/Subs carry an OpDeclare payload.
	Concepts []string  `json:"concepts,omitempty"`
	Roles    []string  `json:"roles,omitempty"`
	Subs     []SubDecl `json:"subs,omitempty"`
	// ConceptAsserts/RoleAsserts carry an OpAssert payload.
	ConceptAsserts []ConceptAssert `json:"cas,omitempty"`
	RoleAsserts    []RoleAssert    `json:"ras,omitempty"`
	// Rules carries OpAddRules rule source texts.
	Rules []string `json:"rules,omitempty"`
	// Rule is the OpRemoveRule rule name.
	Rule string `json:"rule,omitempty"`
	// Stmt is the OpExec SQL statement.
	Stmt string `json:"stmt,omitempty"`
	// SubID identifies a standing subscription (OpSubscribe/OpUnsubscribe).
	// User carries the subscription owner on both ops, so routed replay can
	// shard subscription records exactly like session records.
	SubID string `json:"sid,omitempty"`
	// Subscription is the OpSubscribe payload.
	Subscription *SubSpec `json:"subn,omitempty"`
	// Preserved marks a record re-journaled by recovery after its apply
	// failed (schema drift, reshard edge cases). Preserved records are
	// exempt from checkpoint truncation — the snapshot does not contain
	// their effect, so the journal is their only copy.
	Preserved bool `json:"preserved,omitempty"`
}

// Options tunes a journal.
type Options struct {
	// NoSync disables the per-batch fsync. Appends are then only as
	// durable as the OS page cache — useful for benchmarks and for tests
	// of the framing/compaction machinery, not for production. SetNoSync
	// flips it at runtime; Sync forces an fsync barrier regardless.
	NoSync bool
	// CompactMinRecords is the minimum total record count before
	// compaction triggers (0 means DefaultCompactMinRecords). Compaction
	// then runs whenever dead records outnumber live ones.
	CompactMinRecords int
	// FS is the filesystem the journal opens, writes and renames through
	// (nil means the real filesystem). Tests and the fault-injection
	// layer substitute one that fails on command.
	FS FS
}

// DefaultCompactMinRecords is the compaction floor: below this many total
// records a rewrite would save less than it costs.
const DefaultCompactMinRecords = 512

// BatchSizeBuckets are the group-commit size histogram bounds (records
// per fsync batch, le-inclusive). The distribution is the direct read on
// group-commit effectiveness: all mass at 1 means every append pays its
// own fsync; mass in the higher buckets means concurrent session applies
// are sharing syncs as designed.
var batchSizeBounds = [...]int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// BatchSizeBuckets is the bounds slice callers (the metrics exporter)
// read; it aliases the fixed backing array.
var BatchSizeBuckets = batchSizeBounds[:]

// Stats is a journal's observable state, shaped for /v1/stats.
type Stats struct {
	// Appends counts acknowledged records since open.
	Appends int64 `json:"appends"`
	// Batches counts group commits; Appends/Batches is the achieved
	// group-commit factor.
	Batches int64 `json:"batches"`
	// Fsyncs counts file syncs (one per batch unless NoSync).
	Fsyncs int64 `json:"fsyncs"`
	// Compactions counts live-record rewrites of the file.
	Compactions int64 `json:"compactions"`
	// CompactFailures counts rewrite attempts that errored (e.g. ENOSPC
	// on the temp file). The journal keeps appending and retries after
	// the next batch, but a growing value here with Compactions flat
	// means the file is NOT being bounded — surface it, don't guess.
	CompactFailures int64 `json:"compact_failures"`
	// LiveRecords is the current number of users with a live Set record.
	LiveRecords int `json:"live_records"`
	// SubRecords is the current number of standing subscriptions with a
	// live Subscribe record (retired by Unsubscribe, like Sets by Drops).
	SubRecords int `json:"sub_records"`
	// VocabRecords is the current number of retained vocabulary records
	// (declare/assert/rules/exec not yet covered by a checkpoint, plus
	// checkpoint-exempt preserved/unknown records).
	VocabRecords int `json:"vocab_records"`
	// VocabBytes is the framed size of the retained vocabulary records —
	// the "WAL bytes since last checkpoint" gauge. Background checkpoints
	// drive it back to ~0; unbounded growth means checkpointing is off or
	// failing.
	VocabBytes int64 `json:"vocab_bytes"`
	// CheckpointSeq is the highest sequence number covered by a
	// checkpoint this incarnation (0 before the first checkpoint).
	CheckpointSeq uint64 `json:"checkpoint_seq"`
	// Degraded reports a sticky writer error: every append fails until
	// ResetAfter re-arms the journal (or the process restarts). The
	// serving layer maps it to read-only degraded mode.
	Degraded bool `json:"degraded,omitempty"`
	// Resets counts successful ResetAfter re-arms — degraded→healthy
	// transitions survived without a restart.
	Resets int64 `json:"resets,omitempty"`
	// TotalRecords is the number of records in the file (live + dead).
	TotalRecords int `json:"total_records"`
	// Bytes is the current file size.
	Bytes int64 `json:"bytes"`
	// BatchSizes counts group commits per BatchSizeBuckets bucket (raw,
	// not cumulative; the last slot counts batches above the final
	// bound). sum(BatchSizes) == Batches and the record-weighted total is
	// Appends.
	BatchSizes []int64 `json:"batch_sizes,omitempty"`
}

// Merge folds another journal's stats into a combined view — the shard
// coordinator aggregates per-shard journals with it.
func (s Stats) Merge(o Stats) Stats {
	merged := Stats{
		Appends:         s.Appends + o.Appends,
		Batches:         s.Batches + o.Batches,
		Fsyncs:          s.Fsyncs + o.Fsyncs,
		Compactions:     s.Compactions + o.Compactions,
		CompactFailures: s.CompactFailures + o.CompactFailures,
		LiveRecords:     s.LiveRecords + o.LiveRecords,
		SubRecords:      s.SubRecords + o.SubRecords,
		VocabRecords:    s.VocabRecords + o.VocabRecords,
		VocabBytes:      s.VocabBytes + o.VocabBytes,
		CheckpointSeq:   max(s.CheckpointSeq, o.CheckpointSeq),
		Degraded:        s.Degraded || o.Degraded,
		Resets:          s.Resets + o.Resets,
		TotalRecords:    s.TotalRecords + o.TotalRecords,
		Bytes:           s.Bytes + o.Bytes,
	}
	switch {
	case len(s.BatchSizes) == 0:
		merged.BatchSizes = append([]int64(nil), o.BatchSizes...)
	case len(o.BatchSizes) == 0:
		merged.BatchSizes = append([]int64(nil), s.BatchSizes...)
	default:
		merged.BatchSizes = append([]int64(nil), s.BatchSizes...)
		for i, v := range o.BatchSizes {
			merged.BatchSizes[i] += v
		}
	}
	return merged
}

// liveEntry is the latest Set frame for one user, kept for compaction.
type liveEntry struct {
	seq     uint64
	payload []byte // marshaled Record JSON (not framed)
}

// vocabEntry is one retained vocabulary record, kept until a checkpoint
// covers it. exempt entries (Preserved records, unknown ops) survive
// checkpoints too: the snapshot does not contain their effect.
type vocabEntry struct {
	seq     uint64
	payload []byte
	exempt  bool
}

// pending is one submitted record waiting for its group commit. A
// barrier carries no record: it just forces the batch that contains it
// to fsync (even under NoSync) and completes once everything submitted
// before it is durable. A checkpoint is a barrier that additionally
// retires vocabulary records with seq <= ckptSeq and forces a compaction
// rewrite once the batch is durable.
type pending struct {
	user       string
	subID      string
	op         Op
	seq        uint64
	payload    []byte
	preserved  bool
	barrier    bool
	checkpoint bool
	ckptSeq    uint64
	// reset asks the writer to clear a sticky error after probe (optional)
	// succeeds; processed before the batch's sticky-error check.
	reset bool
	probe func() error
	done  chan error
}

// Journal is an append-only session WAL over one file. All methods are
// safe for concurrent use; appends are totally ordered by Submit call
// order (callers that need apply order = journal order must serialize
// their apply+Submit sections, as serve.Sessions does under its mutex).
type Journal struct {
	path string
	opts Options
	fs   FS

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*pending
	closed bool
	werr   error // sticky writer error; fails all later submits
	seq    uint64

	// Writer-goroutine state (no lock needed beyond the handoff above).
	f      File
	size   int64
	total  int
	live   map[string]liveEntry
	subs   map[string]liveEntry // sub id -> latest Subscribe record
	vocab  []vocabEntry
	vbytes int64  // framed size of vocab entries (kept incrementally)
	ckpt   uint64 // highest checkpointed seq this incarnation

	exited chan struct{}

	// nosync mirrors Options.NoSync, atomically flippable at runtime
	// (SetNoSync): the writer goroutine reads it per batch, recovery
	// replay suspends fsync through it.
	nosync atomic.Bool

	// degraded mirrors werr != nil for lock-free Stats/Degraded reads.
	degraded atomic.Bool
	resets   atomic.Int64

	appends         atomic.Int64
	batches         atomic.Int64
	fsyncs          atomic.Int64
	compactions     atomic.Int64
	compactFailures atomic.Int64
	liveCount       atomic.Int64
	subCount        atomic.Int64
	vocabCount      atomic.Int64
	vocabBytes      atomic.Int64
	ckptSeq         atomic.Uint64
	totalCount      atomic.Int64
	bytes           atomic.Int64

	// batchHist counts group commits by record count, bucketed per
	// BatchSizeBuckets (last slot = overflow).
	batchHist [len(batchSizeBounds) + 1]atomic.Int64
}

// Open opens (creating if absent) the journal at path for appending. An
// existing file is scanned first: its records rebuild the live map and
// sequence counter, and a torn tail — a crash artifact — is truncated
// away. The scan's outcome is returned so callers can log what a previous
// incarnation left behind.
func Open(path string, opts Options) (*Journal, ReplayStats, error) {
	if opts.CompactMinRecords <= 0 {
		opts.CompactMinRecords = DefaultCompactMinRecords
	}
	j := &Journal{
		path: path,
		opts: opts,
		fs:   fsOrOS(opts.FS),
		live: make(map[string]liveEntry),
		subs: make(map[string]liveEntry),
	}
	j.nosync.Store(opts.NoSync)
	j.cond = sync.NewCond(&j.mu)
	j.exited = make(chan struct{})

	var rs ReplayStats
	f, err := j.fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, rs, fmt.Errorf("journal: open: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, rs, fmt.Errorf("journal: stat: %w", err)
	}
	if info.Size() == 0 {
		if _, err := f.Write(magic); err != nil {
			f.Close()
			return nil, rs, fmt.Errorf("journal: writing header: %w", err)
		}
		j.size = int64(len(magic))
	} else {
		// Recover the valid prefix of an existing file.
		valid, stats, err := scan(f, func(rec Record, payload []byte) {
			j.applyLive(rec, payload)
			if rec.Seq > j.seq {
				j.seq = rec.Seq
			}
			j.total++
		})
		if err != nil {
			f.Close()
			return nil, stats, err
		}
		rs = stats
		if valid < info.Size() {
			// Torn tail from a crash mid-append: cut it off so new frames
			// start at a clean boundary.
			if err := f.Truncate(valid); err != nil {
				f.Close()
				return nil, rs, fmt.Errorf("journal: truncating torn tail: %w", err)
			}
		}
		if _, err := f.Seek(valid, io.SeekStart); err != nil {
			f.Close()
			return nil, rs, fmt.Errorf("journal: seek: %w", err)
		}
		if valid == 0 {
			// The magic header itself was torn (a crash during the very
			// first write left fewer than 8 bytes). Rewrite it — appending
			// frames at offset 0 without a header would make every later
			// Replay reject the whole file as bad magic, losing records
			// that were acknowledged as durable.
			if _, err := f.Write(magic); err != nil {
				f.Close()
				return nil, rs, fmt.Errorf("journal: rewriting header: %w", err)
			}
			valid = int64(len(magic))
		}
		j.size = valid
	}
	j.f = f
	j.publishCounters()
	go j.writer()
	return j, rs, nil
}

// applyLive folds one record into the retained-record state (writer
// goroutine / open scan only). Session ops maintain the per-user live
// map; everything else is a vocabulary record retained until a
// checkpoint covers it. Unknown ops (a newer version's records) are
// retained as checkpoint-exempt: this incarnation's snapshots cannot
// contain their effect.
func (j *Journal) applyLive(rec Record, payload []byte) {
	switch rec.Op {
	case OpSet:
		j.live[rec.User] = liveEntry{seq: rec.Seq, payload: payload}
	case OpDrop:
		delete(j.live, rec.User)
	case OpSubscribe:
		j.subs[rec.SubID] = liveEntry{seq: rec.Seq, payload: payload}
	case OpUnsubscribe:
		delete(j.subs, rec.SubID)
	case OpDeclare, OpAssert, OpAddRules, OpRemoveRule, OpExec:
		j.vocab = append(j.vocab, vocabEntry{seq: rec.Seq, payload: payload, exempt: rec.Preserved})
		j.vbytes += int64(frameOverhead + len(payload))
	default:
		j.vocab = append(j.vocab, vocabEntry{seq: rec.Seq, payload: payload, exempt: true})
		j.vbytes += int64(frameOverhead + len(payload))
	}
}

func (j *Journal) publishCounters() {
	j.liveCount.Store(int64(len(j.live)))
	j.subCount.Store(int64(len(j.subs)))
	j.totalCount.Store(int64(j.total))
	j.bytes.Store(j.size)
	j.vocabCount.Store(int64(len(j.vocab)))
	j.vocabBytes.Store(j.vbytes)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Stats snapshots the journal counters lock-free.
func (j *Journal) Stats() Stats {
	st := Stats{
		Appends:         j.appends.Load(),
		Batches:         j.batches.Load(),
		Fsyncs:          j.fsyncs.Load(),
		Compactions:     j.compactions.Load(),
		CompactFailures: j.compactFailures.Load(),
		LiveRecords:     int(j.liveCount.Load()),
		SubRecords:      int(j.subCount.Load()),
		VocabRecords:    int(j.vocabCount.Load()),
		VocabBytes:      j.vocabBytes.Load(),
		CheckpointSeq:   j.ckptSeq.Load(),
		Degraded:        j.degraded.Load(),
		Resets:          j.resets.Load(),
		TotalRecords:    int(j.totalCount.Load()),
		Bytes:           j.bytes.Load(),
	}
	st.BatchSizes = make([]int64, len(j.batchHist))
	for i := range j.batchHist {
		st.BatchSizes[i] = j.batchHist[i].Load()
	}
	return st
}

// SetNoSync flips the per-batch fsync at runtime. Recovery replay turns
// syncing off while it re-journals the restored sessions one by one —
// each routed apply would otherwise pay a full fsync — and turns it back
// on (followed by one Sync barrier) before the new journal generation
// becomes authoritative, so the durability guarantee is unchanged.
func (j *Journal) SetNoSync(v bool) { j.nosync.Store(v) }

// Sync is an fsync barrier: it returns once everything submitted before
// the call is durable, forcing a file sync even when NoSync is set.
func (j *Journal) Sync() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errors.New("journal: closed")
	}
	if j.werr != nil {
		err := j.werr
		j.mu.Unlock()
		return fmt.Errorf("journal: previous write failed: %w", err)
	}
	p := &pending{barrier: true, done: make(chan error, 1)}
	j.queue = append(j.queue, p)
	j.mu.Unlock()
	j.cond.Signal()
	return <-p.done
}

// Submit enqueues the record for the next group commit and returns a wait
// function that blocks until the record is durable (written and fsynced,
// unless NoSync) and reports the outcome. Records become visible to
// replay in Submit order. The returned function must be called exactly
// once; callers serialize Submit with their in-memory apply to keep
// journal order equal to apply order, then wait outside their locks so
// successive applies share one fsync.
func (j *Journal) Submit(rec Record) func() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return waitErr(errors.New("journal: closed"))
	}
	if j.werr != nil {
		err := j.werr
		j.mu.Unlock()
		return waitErr(fmt.Errorf("journal: previous write failed: %w", err))
	}
	j.seq++
	rec.Seq = j.seq
	payload, err := json.Marshal(rec)
	if err != nil {
		j.mu.Unlock()
		return waitErr(fmt.Errorf("journal: marshal: %w", err))
	}
	if len(payload) > maxRecordSize {
		j.mu.Unlock()
		return waitErr(fmt.Errorf("journal: record for %q is %d bytes (max %d)", rec.User, len(payload), maxRecordSize))
	}
	p := &pending{user: rec.User, subID: rec.SubID, op: rec.Op, seq: rec.Seq, payload: payload, preserved: rec.Preserved, done: make(chan error, 1)}
	j.queue = append(j.queue, p)
	j.mu.Unlock()
	j.cond.Signal()
	return func() error { return <-p.done }
}

// Seq returns the highest sequence number assigned so far. Callers that
// need an exact cut (the checkpointer captures it inside the same
// critical section that quiesces submits) must hold whatever lock
// serializes their Submits.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Checkpoint tells the journal that a snapshot now covers every
// vocabulary record with Seq <= seq: they are dropped from the retained
// set and the file is rewritten (live sessions + still-retained
// vocabulary records only), truncating the WAL to ~live-state size. The
// call is durable — it completes only after everything submitted before
// it is fsynced and the rewrite has been renamed into place. Records
// marked Preserved and records with unknown ops survive checkpoints; a
// rewrite failure is reported (and counted in CompactFailures) but the
// retained-set truncation stands: the snapshot, not the rewrite, is the
// authority for what may be dropped, and the next successful compaction
// reclaims the space.
func (j *Journal) Checkpoint(seq uint64) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errors.New("journal: closed")
	}
	if j.werr != nil {
		err := j.werr
		j.mu.Unlock()
		return fmt.Errorf("journal: previous write failed: %w", err)
	}
	p := &pending{barrier: true, checkpoint: true, ckptSeq: seq, done: make(chan error, 1)}
	j.queue = append(j.queue, p)
	j.mu.Unlock()
	j.cond.Signal()
	return <-p.done
}

// Append submits the record and waits for durability — the convenience
// form for callers without a lock to get out from under.
func (j *Journal) Append(rec Record) error {
	return j.Submit(rec)()
}

// Err reports the journal's sticky writer error (nil when healthy). A
// non-nil value means every Submit/Sync/Checkpoint fails until ResetAfter
// re-arms the journal.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.werr != nil {
		return fmt.Errorf("journal: previous write failed: %w", j.werr)
	}
	if j.closed {
		return errors.New("journal: closed")
	}
	return nil
}

// Degraded reports lock-free whether the journal is sticky-failed.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// Reset is ResetAfter with no probe.
func (j *Journal) Reset() error { return j.ResetAfter(nil) }

// ResetAfter attempts to clear a sticky write error and resume appends —
// the recovery path for a disk that filled up (or errored) and came
// back. If probe is non-nil it runs first on the writer goroutine; a
// probe error aborts the reset (the journal stays degraded). The re-arm
// then reopens the file, truncates it back to the last *acknowledged*
// byte — j.size only advances on durable batches, so everything beyond
// it is a torn or unacknowledged tail whose submitters all saw errors —
// and fsyncs, proving the disk accepts writes again. The in-memory
// retained state (live map, vocabulary records, sequence counter)
// already describes exactly that prefix, so no rescan is needed and no
// acknowledged record is ever dropped. Returns nil if the journal was
// not degraded.
func (j *Journal) ResetAfter(probe func() error) error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return errors.New("journal: closed")
	}
	p := &pending{reset: true, probe: probe, done: make(chan error, 1)}
	j.queue = append(j.queue, p)
	j.mu.Unlock()
	j.cond.Signal()
	return <-p.done
}

// setWriteError records (or clears) the sticky writer error, keeping the
// lock-free degraded mirror in step.
func (j *Journal) setWriteError(err error) {
	j.mu.Lock()
	j.werr = err
	j.mu.Unlock()
	j.degraded.Store(err != nil)
}

// handleReset performs a ResetAfter on the writer goroutine.
func (j *Journal) handleReset(probe func() error) error {
	j.mu.Lock()
	werr := j.werr
	j.mu.Unlock()
	if werr == nil {
		return nil
	}
	if probe != nil {
		if err := probe(); err != nil {
			return fmt.Errorf("journal: reset probe: %w", err)
		}
	}
	f, err := j.fs.OpenFile(j.path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reset reopen: %w", err)
	}
	// Cut the file back to the last acknowledged byte (j.size advances
	// only after a durable batch, and compaction publishes the compacted
	// size before its reopen attempt), dropping torn frames from the
	// failed write without dropping anything a caller was told is safe.
	if err := f.Truncate(j.size); err != nil {
		f.Close()
		return fmt.Errorf("journal: reset truncate: %w", err)
	}
	if _, err := f.Seek(j.size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("journal: reset seek: %w", err)
	}
	// The fsync doubles as the write probe: a still-broken disk fails
	// here and the journal stays degraded.
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: reset fsync: %w", err)
	}
	j.f.Close() // old fd may point at a torn tail or an unlinked inode
	j.f = f
	j.resets.Add(1)
	j.setWriteError(nil)
	return nil
}

func waitErr(err error) func() error {
	return func() error { return err }
}

// writer is the single append goroutine: it drains the queue, writes all
// drained frames in one buffered pass, fsyncs once, releases the waiters,
// then considers compaction.
func (j *Journal) writer() {
	defer close(j.exited)
	for {
		j.mu.Lock()
		for len(j.queue) == 0 && !j.closed {
			j.cond.Wait()
		}
		batch := j.queue
		j.queue = nil
		closed := j.closed
		j.mu.Unlock()

		if len(batch) > 0 {
			// Reset requests run before the sticky-error check: a
			// successful re-arm cannot rescue records in the same batch
			// (their Submit already failed while the error was sticky),
			// but it must not itself be failed by the error it clears.
			n := 0
			for _, p := range batch {
				if p.reset {
					p.done <- j.handleReset(p.probe)
					continue
				}
				batch[n] = p
				n++
			}
			batch = batch[:n]
		}

		if len(batch) > 0 {
			// A sticky error fails the whole batch up front — records
			// queued before the error was set included. Writing them
			// anyway would append past a torn region (or onto an unlinked
			// pre-compaction inode) and acknowledge records that replay
			// can never reach.
			j.mu.Lock()
			err := j.werr
			j.mu.Unlock()
			if err != nil {
				err = fmt.Errorf("journal: previous write failed: %w", err)
			} else if err = j.writeBatch(batch); err != nil {
				j.setWriteError(err)
			}
			// Checkpoints in the batch take effect only after the batch
			// itself is durable; the retained-set truncation plus a forced
			// rewrite is what shrinks the file. The rewrite outcome is
			// reported to the checkpoint waiters alone — record waiters
			// only care that their frames are durable.
			var ckptErr error
			hasCkpt := false
			if err == nil {
				for _, p := range batch {
					if p.checkpoint {
						hasCkpt = true
						j.applyCheckpoint(p.ckptSeq)
					}
				}
				if hasCkpt {
					if ckptErr = j.compact(); ckptErr != nil {
						j.compactFailures.Add(1)
					} else {
						j.compactions.Add(1)
					}
					j.publishCounters()
				}
			}
			for _, p := range batch {
				if p.checkpoint && err == nil {
					p.done <- ckptErr
				} else {
					p.done <- err
				}
			}
			if err == nil && !hasCkpt {
				j.maybeCompact()
			}
		}
		if closed {
			j.mu.Lock()
			remaining := j.queue
			j.queue = nil
			j.mu.Unlock()
			for _, p := range remaining {
				p.done <- errors.New("journal: closed")
			}
			return
		}
	}
}

// writeBatch appends every frame of the batch and fsyncs once (the group
// commit). On error the file may hold a torn tail; Open truncates it on
// the next boot, and the sticky error fails this incarnation's later
// submits.
func (j *Journal) writeBatch(batch []*pending) error {
	w := bufio.NewWriter(j.f)
	var frame [frameOverhead]byte
	records, barriers := 0, 0
	for _, p := range batch {
		if p.barrier {
			barriers++
			continue
		}
		records++
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(p.payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(p.payload, castagnoli))
		if _, err := w.Write(frame[:]); err != nil {
			return fmt.Errorf("journal: write: %w", err)
		}
		if _, err := w.Write(p.payload); err != nil {
			return fmt.Errorf("journal: write: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	// A barrier forces the sync even under NoSync: earlier NoSync batches
	// sit in the page cache of the same fd, so this one fsync makes them
	// all durable.
	if (records > 0 && !j.nosync.Load()) || barriers > 0 {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: fsync: %w", err)
		}
		j.fsyncs.Add(1)
	}
	for _, p := range batch {
		if p.barrier {
			continue
		}
		j.size += int64(frameOverhead + len(p.payload))
		j.total++
		j.applyLive(Record{Op: p.op, Seq: p.seq, User: p.user, SubID: p.subID, Preserved: p.preserved}, p.payload)
	}
	if records > 0 {
		j.appends.Add(int64(records))
		j.batches.Add(1)
		i := sort.Search(len(BatchSizeBuckets), func(i int) bool {
			return BatchSizeBuckets[i] >= int64(records)
		})
		j.batchHist[i].Add(1)
	}
	j.publishCounters()
	return nil
}

// applyCheckpoint retires vocabulary records covered by a checkpoint at
// seq (writer goroutine only). Exempt entries — Preserved records and
// unknown ops, whose effect the snapshot cannot contain — are kept.
func (j *Journal) applyCheckpoint(seq uint64) {
	if seq > j.ckpt {
		j.ckpt = seq
	}
	kept := j.vocab[:0]
	var vb int64
	for _, e := range j.vocab {
		if !e.exempt && e.seq <= j.ckpt {
			continue
		}
		kept = append(kept, e)
		vb += int64(frameOverhead + len(e.payload))
	}
	j.vocab = kept
	j.vbytes = vb
	j.ckptSeq.Store(j.ckpt)
}

// maybeCompact rewrites the journal from the retained records (live
// session map + vocabulary records not yet covered by a checkpoint) when
// dead records dominate (writer goroutine only). The rewrite goes to a
// temporary file that is fully written and fsynced before being renamed
// over the journal, so a crash at any instant leaves either the old
// complete file or the new complete file — never a mix.
func (j *Journal) maybeCompact() {
	retained := len(j.live) + len(j.subs) + len(j.vocab)
	dead := j.total - retained
	if j.total < j.opts.CompactMinRecords || dead <= retained {
		return
	}
	if err := j.compact(); err != nil {
		// Not fatal: the rename never happened (compact removes only its
		// temporary file on error), so the journal keeps appending to the
		// intact old file and retries after the next batch. Counted so a
		// persistently failing rewrite (ENOSPC, permissions) is visible
		// in /v1/stats as compact_failures climbing while the file grows,
		// instead of vanishing silently.
		j.compactFailures.Add(1)
		return
	}
	j.compactions.Add(1)
	j.publishCounters()
}

func (j *Journal) compact() error {
	entries := make([]liveEntry, 0, len(j.live)+len(j.subs)+len(j.vocab))
	for _, e := range j.live {
		entries = append(entries, e)
	}
	for _, e := range j.subs {
		entries = append(entries, e)
	}
	for _, e := range j.vocab {
		entries = append(entries, liveEntry{seq: e.seq, payload: e.payload})
	}
	// Original submit order: replay after compaction applies records in
	// the same relative order as the uncompacted file would have —
	// session and vocabulary records interleave exactly as acknowledged.
	sort.Slice(entries, func(a, b int) bool { return entries[a].seq < entries[b].seq })

	tmpPath := j.path + ".compact"
	tmp, err := j.fs.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	size := int64(len(magic))
	if _, err := w.Write(magic); err != nil {
		tmp.Close()
		j.fs.Remove(tmpPath)
		return err
	}
	var frame [frameOverhead]byte
	for _, e := range entries {
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(e.payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(e.payload, castagnoli))
		if _, err := w.Write(frame[:]); err != nil {
			tmp.Close()
			j.fs.Remove(tmpPath)
			return err
		}
		if _, err := w.Write(e.payload); err != nil {
			tmp.Close()
			j.fs.Remove(tmpPath)
			return err
		}
		size += int64(frameOverhead + len(e.payload))
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		j.fs.Remove(tmpPath)
		return err
	}
	if !j.nosync.Load() {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			j.fs.Remove(tmpPath)
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		j.fs.Remove(tmpPath)
		return err
	}
	if err := j.fs.Rename(tmpPath, j.path); err != nil {
		j.fs.Remove(tmpPath)
		return err
	}
	if !j.nosync.Load() {
		// Persist the rename itself; without the directory sync a power
		// cut can roll the directory entry back to the pre-compaction
		// file (fine) or, worse, an in-between metadata state.
		SyncDirFS(j.fs, filepath.Dir(j.path))
	}
	// The rename is the commit point: the file at j.path now holds
	// exactly the compacted entries. Publish size/total before the
	// reopen attempt so a reopen failure leaves them describing the
	// renamed file — ResetAfter truncates to j.size and must not extend
	// the (smaller) compacted file with zeros.
	j.size = size
	j.total = len(entries)
	// The old fd now points at an unlinked inode; reopen the renamed file
	// for further appends. Failing here is the one compaction error that
	// cannot be retried — appends through the stale fd would vanish with
	// the unlinked inode — so it poisons the journal (sticky error) instead
	// of being swallowed by maybeCompact.
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		err = fmt.Errorf("journal: reopen after compaction: %w", err)
		j.setWriteError(err)
		return err
	}
	j.f.Close()
	j.f = f
	return nil
}

// Close drains the queue, syncs and closes the file. Submits after Close
// fail. Durability needs no separate Sync call: every Submit's wait
// function already blocks until its record's group commit is fsynced.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		<-j.exited
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	j.cond.Signal()
	<-j.exited
	var err error
	if !j.nosync.Load() {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- replay ----------------------------------------------------------------

// ReplayStats describes what a replay (or open-scan) recovered.
type ReplayStats struct {
	// Records is how many valid records were read.
	Records int
	// Sets / Drops / Declares / Asserts / RuleAdds / RuleRemoves / Execs
	// break Records down by operation (unknown ops count only in Records).
	Sets         int
	Drops        int
	Declares     int
	Asserts      int
	RuleAdds     int
	RuleRemoves  int
	Execs        int
	Subscribes   int
	Unsubscribes int
	// Torn is true when the file ended in an incomplete or corrupt frame;
	// TornBytes is how many trailing bytes were discarded.
	Torn      bool
	TornBytes int64
}

// Vocab is the number of replayed vocabulary records (everything that is
// not a session op).
func (rs ReplayStats) Vocab() int {
	return rs.Declares + rs.Asserts + rs.RuleAdds + rs.RuleRemoves + rs.Execs
}

// Replay reads the journal at path and calls fn for every valid record in
// order. A missing file replays zero records. Replay stops cleanly at a
// torn or corrupt tail (reported in the stats); an fn error aborts the
// replay and is returned. Replay never writes.
func Replay(path string, fn func(Record) error) (ReplayStats, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return ReplayStats{}, nil
	}
	if err != nil {
		return ReplayStats{}, fmt.Errorf("journal: open for replay: %w", err)
	}
	defer f.Close()
	var ferr error
	_, stats, err := scan(f, func(rec Record, _ []byte) {
		if ferr == nil {
			ferr = fn(rec)
		}
	})
	if err != nil {
		return stats, err
	}
	if ferr != nil {
		return stats, ferr
	}
	return stats, nil
}

// scan reads frames from the start of f, calling fn for each valid record
// with its payload bytes, and returns the byte offset of the end of the
// valid prefix. A *truncated* header yields zero records with the whole
// file torn; a present-but-wrong magic is a hard error (the file is not a
// journal — treating it as torn would silently "recover" zero records
// from, or let Open truncate, arbitrary foreign files; boot-level callers
// that prefer availability handle the error per file, see the BadFiles
// counter in shard recovery). Any framing violation after a good
// header ends the scan at the last good frame: corrupt mid-file bytes are
// indistinguishable from a torn tail without a segment index, so
// everything after the first bad frame is conservatively treated as lost
// (and counted in TornBytes).
func scan(f File, fn func(rec Record, payload []byte)) (validEnd int64, stats ReplayStats, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, stats, fmt.Errorf("journal: stat: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return 0, stats, fmt.Errorf("journal: seek: %w", err)
	}
	r := bufio.NewReader(f)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		// Shorter than a header: the whole file is torn.
		stats.Torn = true
		stats.TornBytes = info.Size()
		return 0, stats, nil
	}
	if string(hdr) != string(magic) {
		return 0, stats, fmt.Errorf("journal: bad magic %q (not a journal file?)", hdr)
	}
	offset := int64(len(magic))
	var frame [frameOverhead]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			if !errors.Is(err, io.EOF) {
				// Partial frame header.
				stats.Torn = true
			}
			break
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		want := binary.LittleEndian.Uint32(frame[4:8])
		if n > maxRecordSize {
			stats.Torn = true
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			stats.Torn = true
			break
		}
		if crc32.Checksum(payload, castagnoli) != want {
			stats.Torn = true
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			stats.Torn = true
			break
		}
		offset += int64(frameOverhead) + int64(n)
		stats.Records++
		switch rec.Op {
		case OpSet:
			stats.Sets++
		case OpDrop:
			stats.Drops++
		case OpDeclare:
			stats.Declares++
		case OpAssert:
			stats.Asserts++
		case OpAddRules:
			stats.RuleAdds++
		case OpRemoveRule:
			stats.RuleRemoves++
		case OpExec:
			stats.Execs++
		case OpSubscribe:
			stats.Subscribes++
		case OpUnsubscribe:
			stats.Unsubscribes++
		}
		fn(rec, payload)
	}
	stats.TornBytes = info.Size() - offset
	if stats.TornBytes > 0 {
		stats.Torn = true
	}
	return offset, stats, nil
}
