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
// so a corrupt length cannot force a huge allocation.
//
// An open journal keeps its file sized one chunk (1 MiB) past the last
// frame. The slack is a sparse extension — zero bytes, no blocks allocated
// — synced once when it is made: at Open, in a compaction, and when a batch
// would cross the end. A group commit's write then lands inside the file,
// and its fsync has no new file length to commit. Close trims the slack, so
// a cleanly closed journal ends at its last frame; a crash leaves it.
//
// Replay stops at the first frame header that is all zero (the slack: no
// writer emits one, a payload being a non-empty JSON object) and at the
// first frame that is short, over-long or CRC-mismatched; everything
// before it is recovered. The bytes from there through the file's last
// non-zero byte are the torn tail (ReplayStats.TornBytes); zeros past them
// are slack, not tear, so the crash image of a healthy journal replays
// untorn. Nothing appends after a torn tail: Open only creates a file,
// recovery reads the previous generation through Replay and re-applies it
// into a new one, and Reset — the in-process re-arm after a write error —
// cuts its own file back to the last acknowledged byte.
//
// # Group commit
//
// All appends go through one writer goroutine. Submit enqueues the
// marshaled record and returns a wait function; the writer drains every
// queued record, frames them into one buffer, writes it once and calls
// fsync once, then releases all their waiters. Concurrent mutations
// therefore share a single fsync (the dominant cost), and the rank path —
// which never journals — is untouched. Submit, Sync, Checkpoint and Reset
// pass one admission check first: a closed journal refuses them all, and
// a sticky write error all but Reset.
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
// the journal; later appends go through the temporary file's descriptor,
// which the rename made the journal's. A Checkpoint forces this rewrite
// immediately. Under arbitrary churn with periodic checkpoints the file is
// therefore bounded by the live session population plus one checkpoint
// interval's vocabulary writes, and replay cost stays proportional to that
// state.
package journal

import (
	"bufio"
	"bytes"
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

	"repro/internal/serve/metrics"
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

// preallocChunk is how far past the last frame an open journal sizes its
// file (see File format).
const preallocChunk = 1 << 20

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
	// BID tags a vocabulary write journaled by a build that kept one
	// replica per shard: every shard's WAL holds the same record under the
	// same BID, so recovery, reading such a generation, applies each write
	// exactly once. Writes journaled now carry none (zero).
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
	// User carries the subscription owner on both ops.
	SubID string `json:"sid,omitempty"`
	// Subscription is the OpSubscribe payload.
	Subscription *SubSpec `json:"subn,omitempty"`
	// Preserved marks a record re-journaled by recovery after its apply
	// failed (schema drift, an op from a newer build). Preserved records are
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
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// Stats is a journal's observable state, shaped for /v1/stats.
type Stats struct {
	// Appends counts acknowledged records since open.
	Appends int64 `json:"appends"`
	// Batches counts group commits, sum(BatchSizes); Appends/Batches is the
	// achieved group-commit factor.
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
	// Reset re-arms the journal (or the process restarts). The
	// serving layer maps it to read-only degraded mode.
	Degraded bool `json:"degraded,omitempty"`
	// Resets counts successful Reset re-arms — degraded→healthy
	// transitions survived without a restart.
	Resets int64 `json:"resets,omitempty"`
	// TotalRecords is the number of records in the file (live + dead).
	TotalRecords int `json:"total_records"`
	// Bytes is the logical file size: the header and every frame, not the
	// slack past the last frame.
	Bytes int64 `json:"bytes"`
	// BatchSizes counts group commits per BatchSizeBuckets bucket (raw,
	// not cumulative; the last slot counts batches above the final
	// bound). sum(BatchSizes) == Batches and the record-weighted total is
	// Appends.
	BatchSizes []int64 `json:"batch_sizes,omitempty"`
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
	// reset asks the writer to clear a sticky error; processed before the
	// batch's sticky-error check.
	reset bool
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
	size   int64  // logical end: just past the last acknowledged frame
	end    int64  // file size: size plus the remaining slack
	buf    []byte // one batch's frames, reused across batches
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

	// degraded mirrors werr != nil for lock-free Stats reads.
	degraded atomic.Bool
	resets   atomic.Int64

	appends         atomic.Int64
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
	// BatchSizeBuckets; its sum is the records appended.
	batchHist *metrics.Histogram
}

// Open creates the journal file at path and opens it for appending. The
// path must not exist (os.O_EXCL): a journal never adopts a file an
// earlier incarnation left behind — Replay reads that one, and recovery
// re-applies it into a fresh generation. The new file is the header plus
// one chunk of slack. The ReplayStats result is always zero: nothing was
// read.
func Open(path string, opts Options) (*Journal, ReplayStats, error) {
	if opts.CompactMinRecords <= 0 {
		opts.CompactMinRecords = DefaultCompactMinRecords
	}
	j := &Journal{
		path:      path,
		opts:      opts,
		fs:        fsOrOS(opts.FS),
		live:      make(map[string]liveEntry),
		subs:      make(map[string]liveEntry),
		batchHist: metrics.NewHistogram(BatchSizeBuckets),
	}
	j.nosync.Store(opts.NoSync)
	j.cond = sync.NewCond(&j.mu)
	j.exited = make(chan struct{})

	f, err := j.fs.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, ReplayStats{}, fmt.Errorf("journal: open: %w", err)
	}
	if _, err := f.Write(magic); err != nil {
		f.Close()
		return nil, ReplayStats{}, fmt.Errorf("journal: writing header: %w", err)
	}
	j.size = int64(len(magic))
	if j.end, err = extend(f, j.size, !opts.NoSync); err != nil {
		f.Close()
		return nil, ReplayStats{}, fmt.Errorf("journal: extend: %w", err)
	}
	j.f = f
	j.publishCounters()
	go j.writer()
	return j, ReplayStats{}, nil
}

// retain folds one durable record into the retained-record state (writer
// goroutine only). Session ops maintain the per-user live map;
// everything else is a vocabulary record retained until a checkpoint
// covers it. Unknown ops (a newer version's records, preserved by
// recovery) are retained as checkpoint-exempt: this incarnation's
// snapshots cannot contain their effect.
func (j *Journal) retain(p *pending) {
	switch p.op {
	case OpSet:
		j.live[p.user] = liveEntry{seq: p.seq, payload: p.payload}
	case OpDrop:
		delete(j.live, p.user)
	case OpSubscribe:
		j.subs[p.subID] = liveEntry{seq: p.seq, payload: p.payload}
	case OpUnsubscribe:
		delete(j.subs, p.subID)
	default:
		exempt := p.preserved || !p.op.IsVocab()
		j.vocab = append(j.vocab, vocabEntry{seq: p.seq, payload: p.payload, exempt: exempt})
		j.vbytes += int64(frameOverhead + len(p.payload))
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
	st.BatchSizes = j.batchHist.Counts()
	for _, n := range st.BatchSizes {
		st.Batches += n
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
	return j.request(&pending{barrier: true})
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
	if err := j.admit(false); err != nil {
		j.mu.Unlock()
		return waitErr(err)
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
	return j.request(&pending{barrier: true, checkpoint: true, ckptSeq: seq})
}

// Append submits the record and waits for durability — the convenience
// form for callers without a lock to get out from under.
func (j *Journal) Append(rec Record) error {
	return j.Submit(rec)()
}

// Reset attempts to clear a sticky write error and resume appends — the
// recovery path for a disk that filled up (or errored) and came back. The
// re-arm runs on the writer goroutine: it reopens the file, truncates it
// back to the last *acknowledged* byte — j.size only advances on durable
// batches, so everything beyond it is a torn or unacknowledged tail whose
// submitters all saw errors — re-extends it by a chunk of slack and
// fsyncs, proving the disk accepts writes again. The in-memory retained
// state (live map, vocabulary records, sequence counter) already describes
// exactly that prefix, so no rescan is needed and no acknowledged record
// is ever dropped. Reset is the one request a sticky error admits. Returns
// nil if the journal was not degraded.
func (j *Journal) Reset() error {
	return j.request(&pending{reset: true})
}

// errClosed answers every request made of a closed journal.
var errClosed = errors.New("journal: closed")

// admit is the one admission check every request passes (j.mu held): a
// closed journal refuses everything, and a sticky write error refuses
// everything but a reset, which exists to clear it.
func (j *Journal) admit(reset bool) error {
	if j.closed {
		return errClosed
	}
	if j.werr != nil && !reset {
		return fmt.Errorf("journal: previous write failed: %w", j.werr)
	}
	return nil
}

// request admits p — a barrier, checkpoint or reset, which carries no
// record — queues it for the writer and waits for the writer's answer.
func (j *Journal) request(p *pending) error {
	p.done = make(chan error, 1)
	j.mu.Lock()
	if err := j.admit(p.reset); err != nil {
		j.mu.Unlock()
		return err
	}
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

// handleReset performs a Reset on the writer goroutine.
func (j *Journal) handleReset() error {
	j.mu.Lock()
	werr := j.werr
	j.mu.Unlock()
	if werr == nil {
		return nil
	}
	f, err := j.fs.OpenFile(j.path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: reset reopen: %w", err)
	}
	// Cut the file back to the last acknowledged byte (j.size advances
	// only after a durable batch), dropping torn frames from the failed
	// write without dropping anything a caller was told is safe.
	if err := f.Truncate(j.size); err != nil {
		f.Close()
		return fmt.Errorf("journal: reset truncate: %w", err)
	}
	if _, err := f.Seek(j.size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("journal: reset seek: %w", err)
	}
	// The extension's fsync doubles as the write probe: a still-broken
	// disk fails here and the journal stays degraded.
	end, err := extend(f, j.size, true)
	if err != nil {
		f.Close()
		return fmt.Errorf("journal: reset extend: %w", err)
	}
	j.f.Close() // old fd may point at a torn tail
	j.f = f
	j.end = end
	j.resets.Add(1)
	j.setWriteError(nil)
	return nil
}

func waitErr(err error) func() error {
	return func() error { return err }
}

// writer is the single append goroutine: it drains the queue, writes all
// drained frames in one write, fsyncs once, releases the waiters,
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
					p.done <- j.handleReset()
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
			// anyway would append past a torn region and acknowledge
			// records that replay can never reach.
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
				p.done <- errClosed
			}
			return
		}
	}
}

// writeBatch appends every frame of the batch in one write and fsyncs
// once (the group commit). On error the file may hold a torn tail: Reset
// cuts it off, the next boot's Replay stops before it, and until then the
// sticky error fails this incarnation's later submits.
func (j *Journal) writeBatch(batch []*pending) error {
	buf := j.buf[:0]
	records, barriers := 0, 0
	for _, p := range batch {
		if p.barrier {
			barriers++
			continue
		}
		records++
		buf = append(appendFrameHeader(buf, p.payload), p.payload...)
	}
	if cap(buf) <= preallocChunk {
		j.buf = buf // a rare huge batch is not kept alive
	}
	if j.size+int64(len(buf)) > j.end {
		// Extend before writing, so the group commit's fsync below
		// commits no new file length.
		end, err := extend(j.f, j.size+int64(len(buf)), !j.nosync.Load())
		if err != nil {
			return fmt.Errorf("journal: extend: %w", err)
		}
		j.end = end
	}
	if len(buf) > 0 {
		if _, err := j.f.Write(buf); err != nil {
			return fmt.Errorf("journal: write: %w", err)
		}
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
		j.retain(p)
	}
	if records > 0 {
		j.appends.Add(int64(records))
		j.batchHist.Observe(float64(records))
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
	fail := func(err error) error {
		tmp.Close()
		j.fs.Remove(tmpPath)
		return err
	}
	// A bufio.Writer keeps its first write error and returns it from
	// Flush, so only Flush is checked.
	w := bufio.NewWriter(tmp)
	size := int64(len(magic))
	w.Write(magic)
	var hdr [frameOverhead]byte
	for _, e := range entries {
		w.Write(appendFrameHeader(hdr[:0], e.payload))
		w.Write(e.payload)
		size += int64(frameOverhead + len(e.payload))
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	// The sync that makes the rewrite durable commits its slack too.
	end, err := extend(tmp, size, !j.nosync.Load())
	if err != nil {
		return fail(err)
	}
	if err := j.fs.Rename(tmpPath, j.path); err != nil {
		return fail(err)
	}
	if !j.nosync.Load() {
		// Persist the rename itself; without the directory sync a power
		// cut can roll the directory entry back to the pre-compaction
		// file (fine) or, worse, an in-between metadata state.
		SyncDirFS(j.fs, filepath.Dir(j.path))
	}
	// The rename is the commit point: tmp's descriptor now names the
	// journal, positioned just past its last frame, and later appends go
	// through it. The old descriptor names the unlinked pre-compaction
	// inode.
	j.f.Close()
	j.f, j.size, j.end, j.total = tmp, size, end, len(entries)
	return nil
}

// extend sizes f one chunk past end — a sparse extension: no blocks are
// allocated — and, with sync, commits the new length, so the appends that
// fill the chunk land inside the file and their fsyncs commit no length
// change. It returns the new file size.
func extend(f File, end int64, sync bool) (int64, error) {
	end += preallocChunk
	if err := f.Truncate(end); err != nil {
		return 0, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			return 0, err
		}
	}
	return end, nil
}

// appendFrameHeader appends payload's frame header — length, then CRC —
// to dst.
func appendFrameHeader(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// Close drains the queue, trims the slack (and anything unacknowledged)
// past the last acknowledged frame, syncs and closes the file. Submits
// after Close fail. Durability needs no separate Sync call: every Submit's
// wait function already blocks until its record's group commit is fsynced.
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
	err := j.f.Truncate(j.size)
	if err == nil && !j.nosync.Load() {
		err = j.f.Sync()
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- replay ----------------------------------------------------------------

// ReplayStats describes what a replay recovered.
type ReplayStats struct {
	// Records is how many valid records were read.
	Records int
	// Torn is true when the file ended in an incomplete or corrupt frame;
	// TornBytes is how many bytes past the recovered prefix were
	// discarded, through the file's last non-zero byte (the zero slack of
	// a pre-sized file is not torn).
	Torn      bool
	TornBytes int64
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
	return scan(f, fn)
}

// scan reads frames from the start of f, calling fn for each valid record.
// A *truncated* header yields zero records with the whole file torn; a
// present-but-wrong magic is a hard error (the file is not a journal —
// treating it as torn would silently "recover" zero records from an
// arbitrary foreign file; boot-level callers that prefer availability
// handle the error per file, see the BadFiles counter in recovery). An
// all-zero frame header — the slack — ends the scan cleanly, and any
// framing violation after a good header ends it at the last good frame:
// corrupt mid-file bytes are indistinguishable from a torn tail without a
// segment index, so everything after the first bad frame is
// conservatively treated as lost. TornBytes counts the lost bytes through
// the file's last non-zero byte; trailing zeros are slack.
func scan(f *os.File, fn func(Record) error) (stats ReplayStats, err error) {
	info, err := f.Stat()
	if err != nil {
		return stats, fmt.Errorf("journal: stat: %w", err)
	}
	r := bufio.NewReader(f)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		// Shorter than a header: the whole file is torn.
		stats.Torn = true
		stats.TornBytes = info.Size()
		return stats, nil
	}
	if string(hdr) != string(magic) {
		return stats, fmt.Errorf("journal: bad magic %q (not a journal file?)", hdr)
	}
	offset := int64(len(magic))
	var frame [frameOverhead]byte
	for {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			break
		}
		n := binary.LittleEndian.Uint32(frame[0:4])
		want := binary.LittleEndian.Uint32(frame[4:8])
		if n == 0 && want == 0 {
			break // the slack past the last frame
		}
		if n > maxRecordSize {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			break
		}
		if crc32.Checksum(payload, castagnoli) != want {
			break
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			break
		}
		offset += int64(frameOverhead) + int64(n)
		stats.Records++
		if err := fn(rec); err != nil {
			return stats, err
		}
	}
	if offset < info.Size() {
		end, err := dataEnd(f, offset)
		if err != nil {
			return stats, fmt.Errorf("journal: reading tail: %w", err)
		}
		stats.TornBytes = end - offset
		stats.Torn = stats.TornBytes > 0
	}
	return stats, nil
}

// dataEnd returns the offset just past f's last non-zero byte at or after
// off, or off when every byte from there on is zero.
func dataEnd(f *os.File, off int64) (int64, error) {
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	end := off
	buf := make([]byte, 64<<10)
	for {
		n, err := io.ReadFull(f, buf)
		if data := bytes.TrimRight(buf[:n], "\x00"); len(data) > 0 {
			end = off + int64(len(data))
		}
		off += int64(n)
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return end, nil
		}
		if err != nil {
			return 0, err
		}
	}
}
