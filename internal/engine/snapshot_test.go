package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/event"
)

func buildSnapshotSource(t *testing.T) *DB {
	t.Helper()
	db := New()
	if err := db.Space().Declare("e1", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := db.Space().DeclareExclusive([]string{"k", "o"}, []float64{0.5, 0.3}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE progs (id TEXT, year INT, rating FLOAT, live BOOL, ev EVENT)")
	db.MustExec("CREATE INDEX ON progs (id)")
	if err := db.InsertRow("progs", "a", 2007, 7.5, true, event.And(event.Basic("e1"), event.Basic("k"))); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRow("progs", "b", nil, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE VIEW recent AS SELECT id, PROB(ev) AS p FROM progs WHERE year >= 2007")
	return db
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	src := buildSnapshotSource(t)
	var buf bytes.Buffer
	if err := src.Dump(&buf, Omit{}); err != nil {
		t.Fatal(err)
	}

	dst := New()
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Table data and types survive.
	res, err := dst.Query("SELECT id, year, rating, live FROM progs ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].I != 2007 || res.Rows[0][2].F != 7.5 || !res.Rows[0][3].B {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !res.Rows[1][1].IsNull() {
		t.Fatalf("NULL lost: %v", res.Rows[1])
	}
	// Events and the exclusive-group structure survive: P(e1 ∧ k) = 0.35.
	v, err := dst.QueryScalar("SELECT PROB(ev) FROM progs WHERE id = 'a'")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.F-0.35) > 1e-9 {
		t.Fatalf("P = %v", v)
	}
	// Exclusivity: k ∧ o impossible in the restored space.
	p, err := dst.Space().Prob(event.And(event.Basic("k"), event.Basic("o")))
	if err != nil || p != 0 {
		t.Fatalf("P(k∧o) = %g, %v", p, err)
	}
	// Views replay.
	res, err = dst.Query("SELECT id, p FROM recent")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || math.Abs(res.Rows[0][1].F-0.35) > 1e-9 {
		t.Fatalf("view rows = %v", res.Rows)
	}
	// Indexes replay.
	tab, _ := dst.Catalog().Get("progs")
	if !tab.HasIndex("id") {
		t.Fatal("index lost")
	}
}

func TestRestoreRequiresEmptyDB(t *testing.T) {
	src := buildSnapshotSource(t)
	var buf bytes.Buffer
	if err := src.Dump(&buf, Omit{}); err != nil {
		t.Fatal(err)
	}
	if err := src.Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("restore into non-empty database accepted")
	}
}

func TestRestoreRejectsBadInput(t *testing.T) {
	db := New()
	if err := db.Restore(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	db = New()
	if err := db.Restore(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestDumpSkipsDeadDeclarations: the omit set is how a dump tells dead
// context from data — the events and rows it names are not persisted,
// whatever their names, and everything it does not name is, ctx_* names
// included; an exclusive group keeps the members it does not name.
func TestDumpSkipsDeadDeclarations(t *testing.T) {
	db := New()
	if err := db.Space().Declare("live", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := db.Space().Declare("ctx_9_0_Kept", 0.25); err != nil {
		t.Fatal(err)
	}
	if err := db.Space().Declare("ctx_9_1_Dead", 0.7); err != nil {
		t.Fatal(err)
	}
	if err := db.Space().DeclareExclusive([]string{"ctx_9_2_K", "ctx_9_3_O"}, []float64{0.5, 0.3}); err != nil {
		t.Fatal(err)
	}
	if err := db.Space().DeclareExclusive([]string{"g", "h", "ctx_9_4_H"}, []float64{0.2, 0.2, 0.3}); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (id TEXT, ev EVENT)")
	for _, r := range []struct {
		id string
		ev *event.Expr
	}{{"a", event.Basic("live")}, {"u", event.Basic("ctx_9_1_Dead")}, {"v", event.Basic("ctx_9_2_K")}} {
		if err := db.InsertRow("t", r.id, r.ev); err != nil {
			t.Fatal(err)
		}
	}
	db.MustExec("CREATE TABLE other (id TEXT)")
	if err := db.InsertRow("other", "u"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	omit := Omit{
		Rows:   map[string]map[string]bool{"t": {"u": true, "v": true}},
		Events: map[string]bool{"ctx_9_1_Dead": true, "ctx_9_2_K": true, "ctx_9_3_O": true, "ctx_9_4_H": true},
	}
	if err := db.Dump(&buf, omit); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"live", "ctx_9_0_Kept", "g", "h"} {
		if !dst.Space().Declared(want) {
			t.Fatalf("%s lost in round trip", want)
		}
	}
	for _, dead := range []string{"ctx_9_1_Dead", "ctx_9_2_K", "ctx_9_3_O", "ctx_9_4_H"} {
		if dst.Space().Declared(dead) {
			t.Fatalf("omitted declaration %s persisted", dead)
		}
	}
	if dst.Space().Len() != 4 || dst.Space().Groups() != 1 {
		t.Fatalf("restored space: Len = %d, Groups = %d; want 4, 1", dst.Space().Len(), dst.Space().Groups())
	}
	if p, err := dst.Space().Prob(event.And(event.Basic("g"), event.Basic("h"))); err != nil || p != 0 {
		t.Fatalf("restored group exclusivity: P = %g, %v", p, err)
	}
	// The rows the set names are gone from their table only.
	for q, want := range map[string]int{"SELECT id FROM t": 1, "SELECT id FROM other": 1} {
		if res, err := dst.Query(q); err != nil || len(res.Rows) != want {
			t.Fatalf("%s: %v, %v; want %d rows", q, res, err, want)
		}
	}
}

// TestDumpKeepsViewReferencedDeclarations: an event mentioned only inside a
// view definition (EV_BASIC literal) has no stored row cell, but dropping
// it would break the restored view — it survives a dump that omits another.
func TestDumpKeepsViewReferencedDeclarations(t *testing.T) {
	db := New()
	if err := db.Space().Declare("ctx_3_0_Rain", 0.3); err != nil {
		t.Fatal(err)
	}
	if err := db.Space().Declare("ctx_3_1_Orphan", 0.5); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (id TEXT, ev EVENT)")
	if err := db.InsertRow("t", "a", event.True()); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE VIEW wet AS SELECT id, PROB(EV_AND(ev, EV_BASIC('ctx_3_0_Rain'))) AS p FROM t")
	var buf bytes.Buffer
	if err := db.Dump(&buf, Omit{Events: map[string]bool{"ctx_3_1_Orphan": true}}); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !dst.Space().Declared("ctx_3_0_Rain") {
		t.Fatal("view-referenced declaration dropped")
	}
	if dst.Space().Declared("ctx_3_1_Orphan") {
		t.Fatal("omitted declaration persisted")
	}
	v, err := dst.QueryScalar("SELECT p FROM wet")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.F-0.3) > 1e-9 {
		t.Fatalf("restored view P = %v, want 0.3", v)
	}
}

// TestDumpKeepsSubqueryReferencedDeclarations: EV_BASIC references hidden
// inside a view's FROM subquery must keep their declarations alive too.
func TestDumpKeepsSubqueryReferencedDeclarations(t *testing.T) {
	db := New()
	if err := db.Space().Declare("ctx_4_0_Rain", 0.3); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE TABLE t (id TEXT, ev EVENT)")
	if err := db.InsertRow("t", "a", event.True()); err != nil {
		t.Fatal(err)
	}
	db.MustExec("CREATE VIEW wet AS SELECT s.p AS p FROM (SELECT PROB(EV_AND(ev, EV_BASIC('ctx_4_0_Rain'))) AS p FROM t) s")
	var buf bytes.Buffer
	if err := db.Dump(&buf, Omit{}); err != nil {
		t.Fatal(err)
	}
	dst := New()
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	v, err := dst.QueryScalar("SELECT p FROM wet")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v.F-0.3) > 1e-9 {
		t.Fatalf("restored subquery view P = %v, want 0.3", v)
	}
}

func TestDumpIsDeterministic(t *testing.T) {
	a, b := buildSnapshotSource(t), buildSnapshotSource(t)
	var ba, bb bytes.Buffer
	if err := a.Dump(&ba, Omit{}); err != nil {
		t.Fatal(err)
	}
	if err := b.Dump(&bb, Omit{}); err != nil {
		t.Fatal(err)
	}
	if ba.String() != bb.String() {
		t.Fatal("dumps of identical databases differ")
	}
}

// TestDumpKeepsViewTextAsWritten: a view is dumped as the SELECT text it was
// created from — comment, spacing and all — not re-rendered from its parse,
// and that text restores to the same rows.
func TestDumpKeepsViewTextAsWritten(t *testing.T) {
	db := buildSnapshotSource(t)
	const text = "SELECT id ,  year\n  FROM progs -- only the rated ones\n  WHERE rating  IS NOT NULL"
	if _, err := db.Exec("CREATE VIEW rated AS " + text + " ;"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Dump(&buf, Omit{}); err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Views) != 2 || snap.Views[0] != (viewDump{Name: "rated", SQL: text}) {
		t.Fatalf("dumped views = %q", snap.Views)
	}
	dst := New()
	if err := dst.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, d := range []*DB{db, dst} {
		res, err := d.Query("SELECT id, year FROM rated")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].S != "a" || res.Rows[0][1].I != 2007 {
			t.Fatalf("view rows = %v", res.Rows)
		}
	}
	if got, _ := dst.exec.ViewText("rated"); got != text {
		t.Fatalf("restored view text = %q", got)
	}
}
