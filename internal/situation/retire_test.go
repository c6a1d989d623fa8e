package situation

import (
	"math"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/mapping"
)

// TestApplyRetiresPreviousEvents: reacquiring context (§5) must not leave
// the previous epoch's basic events behind in the event space.
func TestApplyRetiresPreviousEvents(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	space := l.DB().Space()
	ctx := New("peter").
		Add("Breakfast", 0.9).
		AddExclusive("location", []string{"InKitchen", "InOffice"}, []float64{0.7, 0.2})
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	len1, groups1 := space.Len(), space.Groups()
	if len1 != 3 || groups1 != 1 {
		t.Fatalf("after first apply: Len = %d, Groups = %d", len1, groups1)
	}
	_, events1 := l.OwnerContext("peter")
	for i := 0; i < 50; i++ {
		if err := ctx.Apply(l); err != nil {
			t.Fatal(err)
		}
	}
	if space.Len() != len1 || space.Groups() != groups1 {
		t.Fatalf("space grew under re-apply: Len %d -> %d, Groups %d -> %d",
			len1, space.Len(), groups1, space.Groups())
	}
	// The first epoch's events are retired, not merely orphaned.
	for _, n := range events1 {
		if space.Declared(n) {
			t.Fatalf("first-epoch event %s still declared after churn", n)
		}
	}
	// Probabilities are unchanged by retirement.
	ev, err := l.MembershipEvent(dl.And(dl.Atom("Breakfast"), dl.Atom("InKitchen")), "peter")
	if err != nil {
		t.Fatal(err)
	}
	p, err := space.Prob(ev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.9*0.7) > 1e-9 {
		t.Fatalf("P(Breakfast∧InKitchen) = %g, want 0.63", p)
	}
}

// TestApplyEmptyContextRetractsAndRetiresEverything: the "no context"
// snapshot is the full-retraction case (e.g. the last session dropping).
func TestApplyEmptyContextRetractsAndRetiresEverything(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	space := l.DB().Space()
	ctx := New("peter").
		Add("Breakfast", 0.9).
		AddExclusive("location", []string{"InKitchen", "InOffice"}, []float64{0.7, 0.2})
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	if err := New("peter").Apply(l); err != nil {
		t.Fatal(err)
	}
	if space.Len() != 0 || space.Groups() != 0 {
		t.Fatalf("empty apply left Len = %d, Groups = %d", space.Len(), space.Groups())
	}
	p, err := prob2(l, "Breakfast", "peter")
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("retracted membership still has P = %g", p)
	}
	if concepts, owners := l.ContextConcepts(), l.ContextOwners(); len(concepts) != 0 || len(owners) != 0 {
		t.Fatalf("applied-context record not empty: %v / %v", concepts, owners)
	}
}

// TestApplyRejectsNaNProbability: NaN fails every comparison, so only the
// positive-form validation catches it before it poisons the event space.
func TestApplyRejectsNaNProbability(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	if err := New("u").Add("C", math.NaN()).Apply(l); err == nil {
		t.Fatal("NaN probability accepted")
	}
	if n := l.DB().Space().Len(); n != 0 {
		t.Fatalf("NaN measurement declared %d events", n)
	}
}

func prob2(l *mapping.Loader, concept, ind string) (float64, error) {
	ev, err := l.MembershipEvent(dl.Atom(concept), ind)
	if err != nil {
		return 0, err
	}
	return l.DB().Space().Prob(ev)
}

// TestApplyFailureIsCleanedUpByNextApply: a mid-apply failure may leave
// partial declarations; the next successful apply must retract and retire
// them, so failures do not leak either.
func TestApplyFailureIsCleanedUpByNextApply(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	space := l.DB().Space()
	good := New("peter").Add("Breakfast", 0.9)
	if err := good.Apply(l); err != nil {
		t.Fatal(err)
	}
	// Independent measurements apply before exclusive groups, so the
	// overfull group fails after Breakfast's fresh event was declared.
	bad := New("peter").
		Add("Breakfast", 0.8).
		AddExclusive("location", []string{"InKitchen", "InOffice"}, []float64{0.8, 0.8})
	if err := bad.Apply(l); err == nil {
		t.Fatal("overfull exclusive group accepted")
	}
	if err := good.Apply(l); err != nil {
		t.Fatalf("apply after failed apply: %v", err)
	}
	if space.Len() != 1 || space.Groups() != 0 {
		t.Fatalf("failure leaked declarations: Len = %d, Groups = %d", space.Len(), space.Groups())
	}
	p, err := prob2(l, "Breakfast", "peter")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.9) > 1e-9 {
		t.Fatalf("P(Breakfast) = %g, want 0.9", p)
	}
}

// TestApplyChurnSoak is the situation-layer half of the ISSUE 2 acceptance
// soak: 10k applies must hold the event space at the live vocabulary size,
// with identical membership probabilities before and after the churn.
func TestApplyChurnSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("churn soak skipped in -short mode")
	}
	l := mapping.NewLoader(engine.New())
	space := l.DB().Space()
	contexts := []*Context{
		New("peter").
			Add("Breakfast", 0.9).
			AddExclusive("location", []string{"InKitchen", "InOffice", "InHall"}, []float64{0.6, 0.3, 0.1}),
		New("peter").
			Certain("Weekend").
			Add("Relaxing", 0.7).
			AddExclusive("location", []string{"InKitchen", "InOffice"}, []float64{0.2, 0.7}),
	}
	if err := contexts[0].Apply(l); err != nil {
		t.Fatal(err)
	}
	before, err := prob2(l, "InKitchen", "peter")
	if err != nil {
		t.Fatal(err)
	}
	maxLen, maxGroups := 0, 0
	const applies = 10000
	for i := 1; i <= applies; i++ {
		if err := contexts[i%2].Apply(l); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if n := space.Len(); n > maxLen {
			maxLen = n
		}
		if g := space.Groups(); g > maxGroups {
			maxGroups = g
		}
	}
	// Largest live vocabulary: contexts[0] declares 4 events in 1 group.
	if maxLen > 4 || maxGroups > 1 {
		t.Fatalf("space grew under churn: max Len = %d (want <= 4), max Groups = %d (want <= 1)",
			maxLen, maxGroups)
	}
	// Back to the first context: scores identical to the pre-churn ranking
	// input (bit-for-bit, not just approximately).
	if err := contexts[0].Apply(l); err != nil {
		t.Fatal(err)
	}
	after, err := prob2(l, "InKitchen", "peter")
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("P(InKitchen) changed across churn: %g -> %g", before, after)
	}
}

// TestApplyOwnedChurnTouchesOnlyItsOwner: an owner-scoped apply replaces
// that owner's rows and events and nobody else's, whatever the interleaving;
// a whole-loader Apply then retracts every owner.
func TestApplyOwnedChurnTouchesOnlyItsOwner(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	space := l.DB().Space()
	maria := New("maria").Add("Breakfast", 0.4).
		AddExclusive("location", []string{"InKitchen", "InOffice"}, []float64{0.5, 0.5})
	mariaGen, err := maria.ApplyOwned(l)
	if err != nil {
		t.Fatal(err)
	}
	_, mariaEvents := l.OwnerContext("maria")
	if len(mariaEvents) != 3 {
		t.Fatalf("maria declared %v", mariaEvents)
	}
	before, err := prob2(l, "InKitchen", "maria")
	if err != nil {
		t.Fatal(err)
	}

	last := mariaGen
	for i := 0; i < 200; i++ {
		peter := New("peter").Add("Breakfast", 0.5+0.002*float64(i)).Certain("Weekend")
		if i%3 == 0 {
			peter.AddExclusive("location", []string{"InKitchen", "InHall"}, []float64{0.6, 0.3})
		}
		gen, err := peter.ApplyOwned(l)
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if gen <= last {
			t.Fatalf("apply %d: generation %d after %d", i, gen, last)
		}
		last = gen
		wantLen, wantGroups := 3+1, 1
		if i%3 == 0 {
			wantLen, wantGroups = 3+3, 2
		}
		if space.Len() != wantLen || space.Groups() != wantGroups {
			t.Fatalf("apply %d: Len = %d, Groups = %d, want %d/%d", i, space.Len(), space.Groups(), wantLen, wantGroups)
		}
		if total, ctx := l.ConceptRows("Breakfast"); total != 2 || ctx != 2 {
			t.Fatalf("apply %d: Breakfast holds %d rows, %d from contexts", i, total, ctx)
		}
	}
	for _, n := range mariaEvents {
		if !space.Declared(n) {
			t.Fatalf("peter's applies retired maria's event %s", n)
		}
	}
	if after, err := prob2(l, "InKitchen", "maria"); err != nil || after != before {
		t.Fatalf("P(maria in kitchen) moved across peter's applies: %g -> %g (%v)", before, after, err)
	}
	if got := l.ContextOwners(); len(got) != 2 || got[0] != "maria" || got[1] != "peter" {
		t.Fatalf("owners = %v", got)
	}

	// Ending peter's context retires exactly his events.
	if _, err := New("peter").ApplyOwned(l); err != nil {
		t.Fatal(err)
	}
	if space.Len() != 3 || space.Groups() != 1 || len(l.ContextOwners()) != 1 {
		t.Fatalf("after peter left: Len = %d, Groups = %d, owners %v", space.Len(), space.Groups(), l.ContextOwners())
	}
	if total, ctx := l.ConceptRows("Weekend"); total != 0 || ctx != 0 {
		t.Fatalf("Weekend still holds %d rows (%d from contexts)", total, ctx)
	}
	// The library apply is one situated user per loader: it retracts maria.
	if err := New("zoe").Certain("Weekend").Apply(l); err != nil {
		t.Fatal(err)
	}
	if space.Len() != 0 || space.Groups() != 0 {
		t.Fatalf("whole-loader apply left Len = %d, Groups = %d", space.Len(), space.Groups())
	}
	if p, err := prob2(l, "InKitchen", "maria"); err != nil || p != 0 {
		t.Fatalf("maria still in the kitchen after zoe's whole-loader apply: %g, %v", p, err)
	}
	if concepts := l.ContextConcepts(); len(concepts) != 1 || concepts[0] != "Weekend" {
		t.Fatalf("context concepts = %v", concepts)
	}
}

// TestApplyOwnedFailureIsCleanedUpByNextApply: a mid-apply failure records
// exactly what is still asserted and declared, for that owner alone.
func TestApplyOwnedFailureIsCleanedUpByNextApply(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	space := l.DB().Space()
	if _, err := New("maria").Add("Breakfast", 0.4).ApplyOwned(l); err != nil {
		t.Fatal(err)
	}
	bad := New("peter").
		Add("Breakfast", 0.8).
		AddExclusive("location", []string{"InKitchen", "InOffice"}, []float64{0.8, 0.8})
	if _, err := bad.ApplyOwned(l); err == nil {
		t.Fatal("overfull exclusive group accepted")
	}
	if rows, events := l.OwnerContext("peter"); len(rows) != 1 || len(events) != 1 {
		t.Fatalf("failed apply recorded %v / %v, want the one row and event it got to", rows, events)
	}
	if _, err := New("peter").Add("Breakfast", 0.9).ApplyOwned(l); err != nil {
		t.Fatalf("apply after failed apply: %v", err)
	}
	if space.Len() != 2 || space.Groups() != 0 {
		t.Fatalf("failure leaked declarations: Len = %d, Groups = %d", space.Len(), space.Groups())
	}
	for user, want := range map[string]float64{"peter": 0.9, "maria": 0.4} {
		if p, err := prob2(l, "Breakfast", user); err != nil || math.Abs(p-want) > 1e-9 {
			t.Fatalf("P(Breakfast, %s) = %g, want %g (%v)", user, p, want, err)
		}
	}
}
