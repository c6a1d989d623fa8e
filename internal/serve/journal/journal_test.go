package journal

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func tmpJournal(t *testing.T, opts Options) (*Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sessions.wal")
	j, rs, err := Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Records != 0 || rs.Torn {
		t.Fatalf("fresh journal reported recovery %+v", rs)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

func setRecord(user string, prob float64) Record {
	return Record{
		Op:   OpSet,
		User: user,
		Measurements: []Measurement{
			{Concept: "CtxA", Prob: prob},
			{Concept: "LocK", Prob: 0.6, Exclusive: "loc"},
		},
		Fingerprint: fmt.Sprintf("fp-%s-%g", user, prob),
		Epoch:       7,
	}
}

// opCounts counts records by operation.
func opCounts(recs []Record) map[Op]int {
	n := make(map[Op]int)
	for _, rec := range recs {
		n[rec.Op]++
	}
	return n
}

// collect replays path into a slice.
func collect(t *testing.T, path string) ([]Record, ReplayStats) {
	t.Helper()
	var out []Record
	rs, err := Replay(path, func(rec Record) error {
		out = append(out, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, rs
}

func TestJournalRoundTrip(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	if err := j.Append(setRecord("peter", 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(setRecord("maria", 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpDrop, User: "peter"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, rs := collect(t, path)
	if ops := opCounts(recs); len(recs) != 3 || rs.Records != 3 || ops[OpSet] != 2 || ops[OpDrop] != 1 || rs.Torn {
		t.Fatalf("replay = %d records %v, stats %+v", len(recs), ops, rs)
	}
	if recs[0].User != "peter" || recs[0].Op != OpSet || recs[0].Seq != 1 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[0].Measurements[1].Exclusive != "loc" || recs[0].Measurements[1].Prob != 0.6 {
		t.Fatalf("measurements did not round-trip: %+v", recs[0].Measurements)
	}
	if recs[0].Fingerprint != "fp-peter-0.8" || recs[0].Epoch != 7 {
		t.Fatalf("fingerprint/epoch did not round-trip: %+v", recs[0])
	}
	if recs[2].Op != OpDrop || recs[2].User != "peter" || recs[2].Seq != 3 {
		t.Fatalf("record 2 = %+v", recs[2])
	}
}

func TestJournalReplayMissingFile(t *testing.T) {
	rs, err := Replay(filepath.Join(t.TempDir(), "nope.wal"), func(Record) error {
		t.Fatal("fn called for a missing file")
		return nil
	})
	if err != nil || rs.Records != 0 || rs.Torn {
		t.Fatalf("missing file: stats %+v, err %v", rs, err)
	}
}

// TestJournalGroupCommit: concurrent submitters must share fsync batches —
// the whole point of the group-commit design.
func TestJournalGroupCommit(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	const writers = 16
	const each = 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Append(setRecord(fmt.Sprintf("user%02d", w), float64(i%10)/10)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := j.Stats()
	if st.Appends != writers*each {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*each)
	}
	if st.Batches >= st.Appends {
		t.Fatalf("no batching: %d batches for %d appends", st.Batches, st.Appends)
	}
	if st.Fsyncs != st.Batches {
		t.Fatalf("fsyncs = %d, batches = %d (want one fsync per batch)", st.Fsyncs, st.Batches)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := collect(t, path)
	// Compaction may have rewritten the file down to live records only.
	if len(recs) < writers {
		t.Fatalf("replayed %d records, want >= %d live users", len(recs), writers)
	}
}

// TestJournalCompaction: churning one user must trigger a live-record
// rewrite and leave a file that replays to just the live state, and a
// dropped user must vanish from the file at the next rewrite.
func TestJournalCompaction(t *testing.T) {
	j, path := tmpJournal(t, Options{CompactMinRecords: 64})
	for i := 0; i < 500; i++ {
		if err := j.Append(setRecord("churner", float64(i%100)/100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(setRecord("stable", 0.9)); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction after 500 dead records: %+v", st)
	}
	if st.TotalRecords > 100 {
		t.Fatalf("file still holds %d records after compaction", st.TotalRecords)
	}
	if st.LiveRecords != 2 {
		t.Fatalf("live records = %d, want 2", st.LiveRecords)
	}

	// Read while still open: the file the rewrites left behind.
	recs, rs := collect(t, path)
	if rs.Torn || len(recs) != st.TotalRecords {
		t.Fatalf("compacted file: %d records, stats %+v; want %d untorn", len(recs), rs, st.TotalRecords)
	}
	last := map[string]Record{}
	var seqs []uint64
	for _, r := range recs {
		last[r.User] = r
		seqs = append(seqs, r.Seq)
	}
	if len(last) != 2 {
		t.Fatalf("replay yields %d users, want 2", len(last))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("compaction broke seq order: %v", seqs)
		}
	}

	// Enough further records after the drop to cross the compaction floor
	// again, so a rewrite runs with the churner gone from the live map.
	if err := j.Append(Record{Op: OpDrop, User: "churner"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		if err := j.Append(setRecord("stable", 0.9)); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Compactions; got <= st.Compactions {
		t.Fatalf("no compaction after the drop: %d, %d before", got, st.Compactions)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ = collect(t, path)
	for _, r := range recs {
		if r.User == "churner" {
			t.Fatalf("dropped user survived compaction: %+v", r)
		}
	}
}

// TestJournalTornTail: truncating the file inside the last frame must
// recover every earlier record through Replay.
func TestJournalTornTail(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	for i := 0; i < 5; i++ {
		if err := j.Append(setRecord(fmt.Sprintf("user%d", i), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Every truncation point inside the final frame (and a few into the
	// penultimate one) must yield a clean 4- or fewer-record replay.
	for cut := len(whole) - 1; cut > len(whole)-40; cut-- {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, rs := collect(t, path)
		if !rs.Torn {
			t.Fatalf("cut at %d not reported torn", cut)
		}
		if len(recs) > 4 {
			t.Fatalf("cut at %d replayed %d records", cut, len(recs))
		}
		for _, r := range recs {
			if r.User == "user4" {
				t.Fatalf("cut at %d still replayed the truncated record", cut)
			}
		}
	}
}

// fileSize stats path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestJournalAppendKeepsFileLength: a new journal is the header plus one
// chunk of zero slack, and an open journal stays sized one chunk past its
// last frame, so appends within the chunk move the logical size but
// not the file's — their fsyncs commit no new length.
func TestJournalAppendKeepsFileLength(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	size, logical := fileSize(t, path), j.Stats().Bytes
	fresh, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, append(bytes.Clone(magic), make([]byte, preallocChunk)...)) || logical != int64(len(magic)) {
		t.Fatalf("a new journal holds %d bytes, logical %d; want the header plus %d zero bytes", size, logical, preallocChunk)
	}
	for i := 0; i < 20; i++ {
		if err := j.Append(setRecord(fmt.Sprintf("user%d", i), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("appends within the chunk moved the file size %d -> %d", size, got)
	}
	if got := j.Stats().Bytes; got <= logical {
		t.Fatalf("logical size did not grow: %d -> %d", logical, got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSize(t, path), j.Stats().Bytes; got != want {
		t.Fatalf("closed file holds %d bytes, want its logical %d", got, want)
	}
}

// TestJournalCrashImage: a copy of a live journal — what a crash leaves,
// slack included — replays every acknowledged record untorn, and the live
// journal's next append lands at the logical end, not past the slack.
func TestJournalCrashImage(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	const acked = 6
	for i := 0; i < acked; i++ {
		if err := j.Append(setRecord(fmt.Sprintf("user%d", i), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	image, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	logical := j.Stats().Bytes
	if int64(len(image)) <= logical {
		t.Fatalf("image of %d bytes holds no slack past the logical %d", len(image), logical)
	}
	crashed := filepath.Join(t.TempDir(), "crashed.wal")
	if err := os.WriteFile(crashed, image, 0o644); err != nil {
		t.Fatal(err)
	}

	recs, rs := collect(t, crashed)
	if len(recs) != acked || rs.Torn || rs.TornBytes != 0 {
		t.Fatalf("crash image replayed %d records, stats %+v; want %d untorn", len(recs), rs, acked)
	}

	if err := j.Append(setRecord("after-crash", 1)); err != nil {
		t.Fatal(err)
	}
	// Read while still open: a frame written anywhere but the logical end
	// would sit past zeros that end the replay.
	recs, rs = collect(t, path)
	if len(recs) != acked+1 || rs.Torn {
		t.Fatalf("after one append: %d records, stats %+v", len(recs), rs)
	}
	if last := recs[acked]; last.User != "after-crash" || last.Seq != acked+1 {
		t.Fatalf("appended record = %+v, want seq %d", last, acked+1)
	}
}

// TestJournalRecordBeyondSlack: a record larger than the remaining slack
// extends the file past it and round-trips intact.
func TestJournalRecordBeyondSlack(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	if err := j.Append(setRecord("peter", 0.5)); err != nil {
		t.Fatal(err)
	}
	stmt := "INSERT INTO t VALUES ('" + strings.Repeat("x", preallocChunk+512) + "')"
	if err := j.Append(Record{Op: OpExec, Stmt: stmt}); err != nil {
		t.Fatal(err)
	}
	if got, want := fileSize(t, path), j.Stats().Bytes+preallocChunk; got != want {
		t.Fatalf("file holds %d bytes after the big record, want %d", got, want)
	}
	if err := j.Append(setRecord("maria", 0.5)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rs := collect(t, path)
	if len(recs) != 3 || rs.Torn || recs[1].Stmt != stmt || recs[2].User != "maria" {
		t.Fatalf("replay after the big record: %d records, stats %+v", len(recs), rs)
	}
}

// openRefuses checks that Open will not adopt the existing file at path:
// the error is fs.ErrExist and the file keeps every byte.
func openRefuses(t *testing.T, path string) {
	t.Helper()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if j, _, err := Open(path, Options{}); !errors.Is(err, fs.ErrExist) {
		if err == nil {
			j.Close()
		}
		t.Fatalf("open on an existing file: %v, want fs.ErrExist", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused open changed the file: %q -> %q (%v)", before, after, err)
	}
}

// TestJournalTornHeader: a crash during the very first header write
// leaves fewer than 8 bytes. Replay reads that as a torn file with no
// records, and Open refuses the path: the next boot creates a fresh
// generation instead of appending to it.
func TestJournalTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn-header.wal")
	if err := os.WriteFile(path, magic[:5], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, rs := collect(t, path)
	if !rs.Torn || rs.TornBytes != 5 || rs.Records != 0 || len(recs) != 0 {
		t.Fatalf("torn-header replay: %d records, stats %+v", len(recs), rs)
	}
	openRefuses(t, path)
}

// TestJournalCorruptCRC: a flipped byte mid-file stops replay at the last
// good record before it, without a panic or an error.
func TestJournalCorruptCRC(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	for i := 0; i < 5; i++ {
		if err := j.Append(setRecord(fmt.Sprintf("user%d", i), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte around the middle of the file.
	corrupt := bytes.Clone(whole)
	corrupt[len(corrupt)/2] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, rs := collect(t, path)
	if !rs.Torn {
		t.Fatal("corruption not reported")
	}
	if len(recs) >= 5 {
		t.Fatalf("replayed %d records through a corrupt frame", len(recs))
	}
	for i, r := range recs {
		if r.User != fmt.Sprintf("user%d", i) {
			t.Fatalf("record %d = %+v, prefix not preserved", i, r)
		}
	}
}

// TestJournalBadMagic: a non-journal file is rejected, not replayed, and
// Open leaves it alone.
func TestJournalBadMagic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(path, func(Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "journal: bad magic") {
		t.Fatalf("replay of a file with bad magic: %v", err)
	}
	openRefuses(t, path)
}

// TestJournalSyncBarrier: under NoSync no batch fsyncs, but a Sync
// barrier forces one and makes everything submitted before it durable —
// the mode recovery replay runs in (SetNoSync(true) … replay …
// SetNoSync(false) + Sync).
func TestJournalSyncBarrier(t *testing.T) {
	j, path := tmpJournal(t, Options{NoSync: true})
	for i := 0; i < 10; i++ {
		if err := j.Append(setRecord(fmt.Sprintf("user%d", i), 0.5)); err != nil {
			t.Fatal(err)
		}
	}
	if got := j.Stats().Fsyncs; got != 0 {
		t.Fatalf("NoSync journal fsynced %d times", got)
	}
	j.SetNoSync(false)
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.Fsyncs == 0 {
		t.Fatal("Sync barrier did not fsync")
	}
	if st.Appends != 10 {
		t.Fatalf("barrier counted as an append: %d appends, want 10", st.Appends)
	}
	// Appends after re-enabling sync fsync per batch again.
	if err := j.Append(setRecord("after", 1)); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().Fsyncs; got < st.Fsyncs+1 {
		t.Fatalf("fsyncs = %d after re-enabled append, want > %d", got, st.Fsyncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, rs := collect(t, path)
	if rs.Torn || len(recs) != 11 {
		t.Fatalf("replay after barrier: %d records, stats %+v", len(recs), rs)
	}
}

// subRecord builds an OpSubscribe record for tests.
func subRecord(id, user string) Record {
	th := 0.25
	return Record{
		Op:    OpSubscribe,
		SubID: id,
		User:  user,
		Subscription: &SubSpec{
			Target:     "TvProgram",
			Candidates: []string{"d1", "d2"},
			TopK:       5,
			Threshold:  &th,
		},
	}
}

// TestJournalSubscriptionLifecycle: Subscribe records round-trip with their
// spec, are retired by Unsubscribe (not by checkpoints), survive compaction
// alongside live sessions, and the journal's retained set matches the file
// a replay reads.
func TestJournalSubscriptionLifecycle(t *testing.T) {
	j, path := tmpJournal(t, Options{CompactMinRecords: 8})
	if err := j.Append(setRecord("peter", 0.8)); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(subRecord("sub-1", "peter")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(subRecord("sub-2", "maria")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpUnsubscribe, SubID: "sub-2", User: "maria"}); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().SubRecords; got != 1 {
		t.Fatalf("sub_records = %d, want 1", got)
	}
	if OpSubscribe.IsVocab() || OpUnsubscribe.IsVocab() {
		t.Fatal("subscription ops must not be vocabulary records")
	}
	// A checkpoint covering every seq so far must NOT retire the live
	// subscription: only its own Unsubscribe may.
	if err := j.Checkpoint(j.Seq()); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().SubRecords; got != 1 {
		t.Fatalf("sub_records after checkpoint = %d, want 1", got)
	}
	// Churn sessions past the compaction floor; the rewrite must carry the
	// subscription through.
	for i := 0; i < 64; i++ {
		if err := j.Append(setRecord("peter", float64(i%10)/10)); err != nil {
			t.Fatal(err)
		}
	}
	// Read while still open: the rewrite carried the subscription through.
	recs, _ := collect(t, path)
	if ops := opCounts(recs); ops[OpSubscribe] != 1 || ops[OpUnsubscribe] != 0 {
		t.Fatalf("replay ops after compaction: %v", ops)
	}
	if st := j.Stats(); st.SubRecords != 1 || st.TotalRecords != len(recs) {
		t.Fatalf("stats %+v over a file of %d records, want 1 subscription", st, len(recs))
	}
	var got *Record
	for i := range recs {
		if recs[i].Op == OpSubscribe {
			got = &recs[i]
		}
	}
	if got == nil || got.SubID != "sub-1" || got.User != "peter" {
		t.Fatalf("subscription record missing or wrong: %+v", got)
	}
	sp := got.Subscription
	if sp == nil || sp.Target != "TvProgram" || len(sp.Candidates) != 2 ||
		sp.TopK != 5 || sp.Threshold == nil || *sp.Threshold != 0.25 {
		t.Fatalf("subscription spec did not round-trip: %+v", sp)
	}

	if err := j.Append(Record{Op: OpUnsubscribe, SubID: "sub-1", User: "peter"}); err != nil {
		t.Fatal(err)
	}
	if got := j.Stats().SubRecords; got != 0 {
		t.Fatalf("sub_records after final unsubscribe = %d, want 0", got)
	}
}
