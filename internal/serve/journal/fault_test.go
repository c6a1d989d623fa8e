// Disk-fault tests for the journal, driven through the FS seam by the
// fault injector. External test package: faultinject imports journal, so
// these tests cannot live in package journal itself.
package journal_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/serve/journal"
)

// openFaulty opens a journal whose every file operation consults in.
func openFaulty(t *testing.T, in *faultinject.Injector, opts journal.Options) (*journal.Journal, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sessions-test-000.wal")
	opts.FS = faultinject.FS(in, nil)
	j, _, err := journal.Open(path, opts)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(func() { j.Close() })
	return j, path
}

// setRec builds a session record for user i.
func setRec(i int) journal.Record {
	return journal.Record{Op: journal.OpSet, User: fmt.Sprintf("user%04d", i),
		Measurements: []journal.Measurement{{Concept: "C", Prob: 1}}}
}

// replayUsers returns the set of users with a live session in the WAL.
func replayUsers(t *testing.T, path string) map[string]bool {
	t.Helper()
	users := make(map[string]bool)
	if _, err := journal.Replay(path, func(rec journal.Record) error {
		switch rec.Op {
		case journal.OpSet:
			users[rec.User] = true
		case journal.OpDrop:
			delete(users, rec.User)
		}
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return users
}

func TestENOSPCMidBatchDegradesAndResetRecovers(t *testing.T) {
	in := faultinject.New(1)
	j, path := openFaulty(t, in, journal.Options{})

	// A healthy prefix whose acks must survive everything below.
	for i := 0; i < 8; i++ {
		if err := j.Append(setRec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	// Disk full from here on: writes fail, and so does the fsync the
	// reset re-arm uses to probe the disk.
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSWrite, Err: "ENOSPC"}); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSSync, Err: "ENOSPC"}); err != nil {
		t.Fatal(err)
	}
	err := j.Append(setRec(100))
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", err)
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after write error")
	}
	// Sticky: later appends fail without touching the disk.
	if err := j.Append(setRec(101)); err == nil {
		t.Fatal("append succeeded on a sticky-failed journal")
	}
	// Reset while the disk is still broken must fail and stay degraded
	// (the re-arm fsync probes the disk).
	if err := j.Reset(); err == nil {
		t.Fatal("Reset succeeded while writes still fail")
	}
	if !j.Degraded() {
		t.Fatal("journal left degraded mode while the disk is still broken")
	}

	// Disk recovers.
	in.Clear()
	if err := j.Reset(); err != nil {
		t.Fatalf("Reset after recovery: %v", err)
	}
	if j.Degraded() {
		t.Fatal("journal still degraded after successful Reset")
	}
	if j.Stats().Resets != 1 {
		t.Fatalf("resets = %d, want 1", j.Stats().Resets)
	}
	for i := 200; i < 204; i++ {
		if err := j.Append(setRec(i)); err != nil {
			t.Fatalf("append after reset: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	users := replayUsers(t, path)
	for i := 0; i < 8; i++ {
		if !users[fmt.Sprintf("user%04d", i)] {
			t.Fatalf("acked pre-fault record user%04d lost", i)
		}
	}
	for i := 200; i < 204; i++ {
		if !users[fmt.Sprintf("user%04d", i)] {
			t.Fatalf("acked post-reset record user%04d lost", i)
		}
	}
	if users["user0100"] || users["user0101"] {
		t.Fatal("unacknowledged record surfaced on replay")
	}
}

func TestTornWriteTruncatedOnReset(t *testing.T) {
	in := faultinject.New(1)
	j, path := openFaulty(t, in, journal.Options{})

	for i := 0; i < 4; i++ {
		if err := j.Append(setRec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// One torn write: half the frame lands, then EIO.
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSWrite, Err: "EIO", Torn: true, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(setRec(50)); err == nil {
		t.Fatal("torn write acked")
	}
	in.Clear()
	if err := j.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	// The reset truncated the torn tail; post-reset appends land on a
	// clean frame boundary.
	if err := j.Append(setRec(60)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	users := replayUsers(t, path)
	for i := 0; i < 4; i++ {
		if !users[fmt.Sprintf("user%04d", i)] {
			t.Fatalf("acked record user%04d lost", i)
		}
	}
	if users["user0050"] {
		t.Fatal("torn record surfaced on replay")
	}
	if !users["user0060"] {
		t.Fatal("post-reset record lost")
	}
}

func TestFsyncErrorOnGroupCommitBarrier(t *testing.T) {
	in := faultinject.New(1)
	j, path := openFaulty(t, in, journal.Options{})

	if err := j.Append(setRec(0)); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSSync, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	// The record's bytes may reach the file, but the fsync barrier fails:
	// the caller must NOT get an ack, and the journal must degrade.
	if err := j.Append(setRec(1)); err == nil {
		t.Fatal("append acked despite fsync failure")
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after fsync failure")
	}
	in.Clear()
	if err := j.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if err := j.Append(setRec(2)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	users := replayUsers(t, path)
	if !users["user0000"] || !users["user0002"] {
		t.Fatalf("acked records lost: %v", users)
	}
	// user0001 was never acked; after the reset truncated the unacked
	// tail it must be gone.
	if users["user0001"] {
		t.Fatal("unacked record survived the reset truncation")
	}
}

// TestFsyncErrorOnExtend: a batch that crosses the file's end first extends
// it by a chunk and syncs the new length. A failing sync there degrades the
// journal exactly as a failed batch fsync does, and the reset re-extends.
func TestFsyncErrorOnExtend(t *testing.T) {
	in := faultinject.New(1)
	j, path := openFaulty(t, in, journal.Options{})

	if err := j.Append(setRec(0)); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSSync, Err: "EIO"}); err != nil {
		t.Fatal(err)
	}
	// Larger than the whole chunk of slack, so the batch must extend.
	big := setRec(1)
	big.Fingerprint = strings.Repeat("f", 2<<20)
	err := j.Append(big)
	if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "extend") {
		t.Fatalf("want the extension's EIO, got %v", err)
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded after the extension's fsync failed")
	}
	if err := j.Append(setRec(2)); err == nil {
		t.Fatal("append succeeded on a sticky-failed journal")
	}
	if err := j.Reset(); err == nil {
		t.Fatal("Reset succeeded while fsync still fails")
	}

	in.Clear()
	if err := j.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := j.Stats().Bytes + 1<<20; fi.Size() != want {
		t.Fatalf("file holds %d bytes after the reset, want the logical %d plus one 1 MiB chunk",
			fi.Size(), j.Stats().Bytes)
	}
	if err := j.Append(setRec(3)); err != nil {
		t.Fatalf("append after reset: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	users := replayUsers(t, path)
	if !users["user0000"] || !users["user0003"] || users["user0001"] || users["user0002"] {
		t.Fatalf("replayed users %v, want exactly the acked user0000 and user0003", users)
	}
}

func TestRenameFailureDuringCompaction(t *testing.T) {
	in := faultinject.New(1)
	j, path := openFaulty(t, in, journal.Options{CompactMinRecords: 4})

	// Rewrite the same user so dead records dominate and compaction is
	// due, but make the commit rename fail.
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSRename, Err: "EIO", Match: ".compact"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		rec := setRec(0)
		rec.Measurements[0].Prob = float64(i+1) / 16
		if err := j.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := j.Stats()
	if st.CompactFailures == 0 {
		t.Fatalf("no compaction attempt failed (compactions=%d)", st.Compactions)
	}
	if st.Compactions != 0 {
		t.Fatalf("compaction claimed success despite rename failure")
	}
	// The failure is non-fatal: the old file is intact, appends keep
	// working, and once the rename works again compaction succeeds.
	if j.Degraded() {
		t.Fatal("compaction rename failure must not degrade the journal")
	}
	in.Clear()
	for i := 0; i < 8; i++ {
		if err := j.Append(setRec(0)); err != nil {
			t.Fatalf("append after clear: %v", err)
		}
	}
	if j.Stats().Compactions == 0 {
		t.Fatal("compaction never succeeded after the fault cleared")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if users := replayUsers(t, path); !users["user0000"] {
		t.Fatal("live record lost across failed+successful compactions")
	}
}

func TestOpenFailureSurfaces(t *testing.T) {
	in := faultinject.New(1)
	if err := in.Arm(faultinject.Fault{Point: faultinject.FSOpen, Err: "EACCES"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.wal")
	_, _, err := journal.Open(path, journal.Options{FS: faultinject.FS(in, nil)})
	if !errors.Is(err, syscall.EACCES) {
		t.Fatalf("want EACCES, got %v", err)
	}
}
