package contextrank

import (
	"bytes"
	"math"
	"testing"
)

// snapshotDataSystem is a system with one certain and one uncertain data
// assertion: one data event.
func snapshotDataSystem(t *testing.T) *System {
	t.Helper()
	sys := NewSystem()
	if err := sys.DeclareConcept("Doc"); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssertConcept("Doc", "d1", 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.AssertConcept("Doc", "d2", 0.6); err != nil {
		t.Fatal(err)
	}
	return sys
}

// saveAndRestore round-trips sys through a snapshot, which must name no
// context event.
func saveAndRestore(t *testing.T, sys *System) *System {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("ctx_")) {
		t.Fatal("the snapshot names a context event")
	}
	restored, err := RestoreSystem(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestRestoreRetiresSnapshotContext: context is sensed fresh (§5), so a
// snapshot taken with an applied uncertain context restores without it —
// no rows, no events — and re-sensing on the restored system keeps the event
// space bounded by the live context.
func TestRestoreRetiresSnapshotContext(t *testing.T) {
	sys := snapshotDataSystem(t)
	if err := sys.SetContext(NewContext("u").Add("Rainy", 0.7)); err != nil {
		t.Fatal(err)
	}
	restored := saveAndRestore(t, sys)
	if got := restored.DB().Space().Len(); got != 1 {
		t.Fatalf("restored space holds %d events, want 1 (the data event)", got)
	}
	if total, ctx := restored.Loader().ConceptRows("Rainy"); total != 0 || ctx != 0 {
		t.Fatalf("restored Rainy holds %d rows, %d of them context", total, ctx)
	}
	for i := 0; i < 5; i++ {
		if err := restored.SetContext(NewContext("u").Add("Rainy", 0.8).Add("Cold", 0.5)); err != nil {
			t.Fatalf("post-restore apply %d: %v", i, err)
		}
	}
	if got := restored.DB().Space().Len(); got != 3 {
		t.Fatalf("space holds %d events after post-restore applies, want 3 (1 data + 2 context)", got)
	}
}

// TestRestoreAdoptsUserContexts: contexts applied whole and per user —
// certain memberships and exclusive groups included — are all left out of a
// snapshot; the restored system holds only data, and its first applies,
// whole or per user, work and stay bounded.
func TestRestoreAdoptsUserContexts(t *testing.T) {
	sys := snapshotDataSystem(t)
	if err := sys.SetContext(NewContext("w").Certain("Sunny").Add("Cold", 0.2)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SetUserContext(NewContext("u").Add("Rainy", 0.7)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SetUserContext(NewContext("v").Certain("Rainy").
		AddExclusive("room", []string{"InKitchen", "InLounge"}, []float64{0.6, 0.3})); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Loader().ContextOwners()); got != 3 {
		t.Fatalf("%d context owners before the snapshot, want 3", got)
	}
	restored := saveAndRestore(t, sys)
	if got := restored.DB().Space().Len(); got != 1 || restored.DB().Space().Groups() != 0 {
		t.Fatalf("restored space holds %d events in %d groups, want only the data event", got, restored.DB().Space().Groups())
	}
	for _, c := range []string{"Sunny", "Cold", "Rainy", "InKitchen", "InLounge"} {
		if total, ctx := restored.Loader().ConceptRows(c); total != 0 || ctx != 0 {
			t.Fatalf("restored %s holds %d rows, %d of them context", c, total, ctx)
		}
	}
	if total, _ := restored.Loader().ConceptRows("Doc"); total != 2 {
		t.Fatalf("restored Doc holds %d rows, want 2", total)
	}
	if len(restored.Loader().ContextOwners()) != 0 {
		t.Fatalf("restored system has context owners %v", restored.Loader().ContextOwners())
	}
	for i := 0; i < 3; i++ {
		if _, err := restored.SetUserContext(NewContext("v").Certain("Rainy").
			AddExclusive("room", []string{"InKitchen", "InLounge"}, []float64{0.5, 0.4})); err != nil {
			t.Fatalf("post-restore user apply %d: %v", i, err)
		}
	}
	if err := restored.SetContext(NewContext("w").Add("Cold", 0.1)); err != nil {
		t.Fatal(err)
	}
	if got := restored.DB().Space().Len(); got != 2 {
		t.Fatalf("space holds %d events after the post-restore applies, want 2 (1 data + 1 context)", got)
	}
	if total, _ := restored.Loader().ConceptRows("Rainy"); total != 0 {
		t.Fatalf("post-restore context left %d rows in Rainy", total)
	}
}

func TestRankGroup(t *testing.T) {
	sys := buildTVTouch(t)
	// One context snapshot covering both users.
	ctx := NewContext("peter").Certain("Weekend").Certain("Breakfast").
		CertainFor("mary", "Weekend").CertainFor("mary", "Breakfast")
	if err := sys.SetContext(ctx); err != nil {
		t.Fatal(err)
	}
	maryRule, err := ParseRule("RULE M WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.5")
	if err != nil {
		t.Fatal(err)
	}
	results, err := sys.RankGroup(
		[]string{"peter", "mary"}, "TvProgram",
		map[string][]Rule{"peter": sys.Rules().Rules(), "mary": {maryRule}},
		PolicyConsensus)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %v", results)
	}
	for _, r := range results {
		if r.ID == "BBCNews" && math.Abs(r.Score-0.18*0.5) > 1e-9 {
			t.Fatalf("consensus = %v", r)
		}
	}
	// Average policy runs too.
	if _, err := sys.RankGroup([]string{"peter", "mary"}, "TvProgram",
		map[string][]Rule{}, PolicyAverage); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RankGroup(nil, "TvProgram", nil, PolicyConsensus); err == nil {
		t.Fatal("empty group accepted")
	}
	if _, err := sys.RankGroup([]string{"peter"}, "NOT (", nil, PolicyConsensus); err == nil {
		t.Fatal("bad target accepted")
	}
}

func TestSnapshotRoundTripThroughFacade(t *testing.T) {
	sys := buildTVTouch(t)
	var buf bytes.Buffer
	if err := sys.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Rules survive.
	if restored.Rules().Len() != 2 {
		t.Fatalf("rules = %d", restored.Rules().Len())
	}
	// Vocabulary survives: new assertions and context still work.
	if err := restored.AssertConcept("TvProgram", "NewShow", 1); err != nil {
		t.Fatal(err)
	}
	if err := restored.SetContext(NewContext("peter").Certain("Weekend").Certain("Breakfast")); err != nil {
		t.Fatal(err)
	}
	results, err := restored.Rank("peter", "TvProgram")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("results = %v", results)
	}
	// Table 1 scores reproduce on the restored system.
	for _, r := range results {
		if r.ID == "Channel5News" && math.Abs(r.Score-0.6006) > 1e-9 {
			t.Fatalf("restored score = %v", r)
		}
	}
	if _, err := RestoreSystem(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
}
