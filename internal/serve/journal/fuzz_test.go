package journal

import (
	"os"
	"path/filepath"
	"testing"
)

// validJournalBytes builds a well-formed journal mixing every record
// type — sessions, drops, and the full vocabulary set — to seed the
// fuzzer with realistic frame structure.
func validJournalBytes(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.wal")
	j, _, err := Open(path, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, rec := range []Record{
		{Op: OpDeclare, BID: 1, Concepts: []string{"CtxA", "CtxB"}, Roles: []string{"likes"}, Subs: []SubDecl{{Sub: "CtxB", Super: "CtxA"}}},
		{Op: OpSet, User: "peter", Measurements: []Measurement{{Concept: "CtxA", Prob: 0.8}}},
		{Op: OpAssert, BID: 2, ConceptAsserts: []ConceptAssert{{Concept: "CtxA", ID: "x1", Prob: 1}}, RoleAsserts: []RoleAssert{{Role: "likes", Src: "x1", Dst: "x2", Prob: 0.9}}},
		{Op: OpSet, User: "maria", Measurements: []Measurement{{Concept: "CtxB", Prob: 0.5, Exclusive: "loc"}}},
		{Op: OpAddRules, BID: 3, Rules: []string{"RULE r WHEN CtxA PREFER CtxB WITH 0.9"}},
		{Op: OpDrop, User: "peter"},
		{Op: OpExec, BID: 4, Stmt: "CREATE TABLE t (a INT)"},
		{Op: OpRemoveRule, BID: 5, Rule: "r"},
		{Op: OpSet, User: "peter", Measurements: []Measurement{{Concept: "CtxA", Prob: 1}}},
	} {
		if err := j.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzJournalReplay throws arbitrary bytes at the replay path: whatever
// the file contents — truncated tails, flipped CRCs, hostile length
// fields, garbage JSON — Replay must never panic, never allocate
// unboundedly, and must only surface records that decode cleanly. The
// seed corpus includes a valid journal plus targeted mutations of it, so
// the CI run of this function (seeds execute as ordinary tests) covers
// the torn-write cases the crash smoke cannot reach deterministically.
func FuzzJournalReplay(f *testing.F) {
	valid := validJournalBytes(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])            // torn tail
	f.Add(valid[:len(magic)])              // header only
	f.Add([]byte{})                        // empty file
	f.Add([]byte("CARWAL1\n\xff\xff\xff")) // hostile length field
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0x42 // corrupt CRC mid-file
	f.Add(mutated)
	// A crash leaves the pre-sized file's zero slack past the last frame.
	slack := make([]byte, 4096)
	f.Add(append(append([]byte(nil), valid...), slack...))                // zero slack after the last frame
	f.Add(append(append([]byte(nil), valid[:len(valid)-3]...), slack...)) // a frame torn inside the slack
	afterZero := append(append([]byte(nil), valid...), make([]byte, frameOverhead)...)
	f.Add(append(append(afterZero, "junk"...), slack...)) // non-zero bytes after a zero header

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		rs, err := Replay(path, func(rec Record) error {
			if rec.Op != OpSet && rec.Op != OpDrop {
				// Unknown ops decode (the frame was CRC-valid) but must
				// still be surfaced consistently — count them like any
				// record; callers skip ops they do not know.
				_ = rec
			}
			n++
			return nil
		})
		if err != nil {
			return // rejected (e.g. bad magic) — fine, just no panic
		}
		if n != rs.Records {
			t.Fatalf("fn called %d times but stats report %d records", n, rs.Records)
		}
		if len(data) >= len(magic) {
			if rs.Torn != (rs.TornBytes > 0) {
				t.Fatalf("torn = %v with %d torn bytes", rs.Torn, rs.TornBytes)
			}
			// Zeros past the data are slack: no frame ends in them (a JSON
			// payload holds no NUL byte), so they change nothing replay says.
			padded := filepath.Join(t.TempDir(), "padded.wal")
			if err := os.WriteFile(padded, append(data[:len(data):len(data)], make([]byte, 64)...), 0o644); err != nil {
				t.Fatal(err)
			}
			prs, err := Replay(padded, func(Record) error { return nil })
			if err != nil || prs != rs {
				t.Fatalf("with zero slack: %+v, err %v; without: %+v", prs, err, rs)
			}
		}

		// Open must agree with Replay on what is recoverable, truncate the
		// torn tail, and leave a journal that appends cleanly.
		j, ors, err := Open(path, Options{})
		if err != nil {
			return
		}
		if ors.Records != rs.Records {
			t.Fatalf("open recovered %d records, replay %d", ors.Records, rs.Records)
		}
		if err := j.Append(Record{Op: OpSet, User: "post-fuzz", Measurements: []Measurement{{Concept: "C", Prob: 1}}}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		after, err := Replay(path, func(Record) error { return nil })
		if err != nil {
			t.Fatalf("replay after recovery+append: %v", err)
		}
		if after.Torn || after.Records != rs.Records+1 {
			t.Fatalf("after recovery+append: %+v, want %d clean records", after, rs.Records+1)
		}
	})
}
