package journal

import (
	"fmt"
	"os"
	"testing"
)

// TestJournalMixedRecordRoundTrip: every vocabulary op must frame,
// replay and count exactly like the session ops that preceded them.
func TestJournalMixedRecordRoundTrip(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	recs := []Record{
		{Op: OpDeclare, BID: 9, Concepts: []string{"A", "B"}, Roles: []string{"r"}, Subs: []SubDecl{{Sub: "B", Super: "A"}}},
		setRecord("peter", 0.8),
		{Op: OpAssert, ConceptAsserts: []ConceptAssert{{Concept: "A", ID: "x", Prob: 0.7}}, RoleAsserts: []RoleAssert{{Role: "r", Src: "x", Dst: "y", Prob: 1}}},
		{Op: OpAddRules, Rules: []string{"RULE q WHEN A PREFER B WITH 0.9"}},
		{Op: OpRemoveRule, Rule: "q"},
		{Op: OpExec, Stmt: "CREATE TABLE t (a INT)"},
		{Op: OpDrop, User: "peter"},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	out, rs := collect(t, path)
	if rs.Records != 7 || rs.Sets != 1 || rs.Drops != 1 || rs.Declares != 1 ||
		rs.Asserts != 1 || rs.RuleAdds != 1 || rs.RuleRemoves != 1 || rs.Execs != 1 {
		t.Fatalf("replay stats %+v", rs)
	}
	d := out[0]
	if d.BID != 9 || len(d.Concepts) != 2 || d.Subs[0] != (SubDecl{Sub: "B", Super: "A"}) {
		t.Fatalf("declare did not round-trip: %+v", d)
	}
	a := out[2]
	if a.ConceptAsserts[0] != (ConceptAssert{Concept: "A", ID: "x", Prob: 0.7}) ||
		a.RoleAsserts[0] != (RoleAssert{Role: "r", Src: "x", Dst: "y", Prob: 1}) {
		t.Fatalf("assert did not round-trip: %+v", a)
	}
	if out[3].Rules[0] != "RULE q WHEN A PREFER B WITH 0.9" || out[4].Rule != "q" ||
		out[5].Stmt != "CREATE TABLE t (a INT)" {
		t.Fatalf("rule/exec payloads did not round-trip: %+v %+v %+v", out[3], out[4], out[5])
	}
	for i, rec := range out {
		if rec.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d", i, rec.Seq)
		}
	}
}

// TestJournalCheckpointTruncates: a checkpoint must drop every covered
// vocabulary record from the file while keeping live sessions and the
// uncovered suffix, and the truncated journal must replay consistently.
func TestJournalCheckpointTruncates(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	for i := 0; i < 100; i++ {
		if err := j.Append(Record{Op: OpDeclare, Concepts: []string{fmt.Sprintf("C%03d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(setRecord("peter", 0.8)); err != nil { // seq 101
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpExec, Stmt: "CREATE TABLE t (a INT)"}); err != nil { // seq 102
		t.Fatal(err)
	}
	// Logical sizes: the file itself stays one chunk past the last frame.
	before := j.Stats().Bytes

	// Cover everything up to the session record: the 100 declares die,
	// the session and the later exec survive.
	if err := j.Checkpoint(101); err != nil {
		t.Fatal(err)
	}
	st := j.Stats()
	if st.CheckpointSeq != 101 {
		t.Fatalf("CheckpointSeq = %d, want 101", st.CheckpointSeq)
	}
	if st.VocabRecords != 1 {
		t.Fatalf("VocabRecords = %d, want 1 (the post-checkpoint exec)", st.VocabRecords)
	}
	if st.Compactions == 0 {
		t.Fatal("checkpoint did not rewrite the file")
	}
	after := st.Bytes
	if after >= before {
		t.Fatalf("file did not shrink: %d -> %d bytes", before, after)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Closed, the file ends at its last frame.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != after {
		t.Fatalf("closed file holds %d bytes, want %d", fi.Size(), after)
	}

	out, rs := collect(t, path)
	if rs.Sets != 1 || rs.Declares != 0 || rs.Execs != 1 || rs.Records != 2 {
		t.Fatalf("post-checkpoint replay stats %+v", rs)
	}
	// Sequence numbers survive the rewrite: recovery still orders the
	// suffix against the manifest's covered sequence.
	if out[0].Seq != 101 || out[1].Seq != 102 {
		t.Fatalf("seqs after checkpoint = %d, %d (want 101, 102)", out[0].Seq, out[1].Seq)
	}
}

// TestJournalCheckpointKeepsPreserved: records flagged Preserved (failed
// re-applies whose only copy is the WAL) are checkpoint-exempt — a
// snapshot cannot contain them, so no checkpoint may retire them.
func TestJournalCheckpointKeepsPreserved(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	if err := j.Append(Record{Op: OpDeclare, Concepts: []string{"Gone"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Op: OpDeclare, Preserved: true, Concepts: []string{"Kept"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Checkpoint(j.Seq()); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	out, rs := collect(t, path)
	if rs.Declares != 1 || len(out) != 1 || !out[0].Preserved || out[0].Concepts[0] != "Kept" {
		t.Fatalf("after checkpoint: %d records, stats %+v", len(out), rs)
	}
}

// TestJournalCheckpointIsDurabilityBarrier: Checkpoint must not return
// before everything submitted ahead of it is on disk — the caller is
// about to truncate history on the snapshot's authority.
func TestJournalCheckpointIsDurabilityBarrier(t *testing.T) {
	j, path := tmpJournal(t, Options{})
	j.SetNoSync(true)
	for i := 0; i < 10; i++ {
		if err := j.Append(Record{Op: OpDeclare, Concepts: []string{fmt.Sprintf("C%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Checkpoint(5); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, rs := collect(t, path)
	if rs.Declares != 5 || rs.Torn {
		t.Fatalf("after barrier checkpoint: stats %+v, want the 5 uncovered declares intact", rs)
	}
}
