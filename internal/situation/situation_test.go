package situation

import (
	"math"
	"testing"
	"time"

	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/mapping"
)

func prob(t *testing.T, l *mapping.Loader, concept, ind string) float64 {
	t.Helper()
	ev, err := l.MembershipEvent(dl.Atom(concept), ind)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.DB().Space().Prob(ev)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApplyCertainAndUncertain(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	ctx := New("peter").Certain("Weekend").Add("Breakfast", 0.9)
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	if p := prob(t, l, "Weekend", "peter"); p != 1 {
		t.Fatalf("P(Weekend) = %g", p)
	}
	if p := prob(t, l, "Breakfast", "peter"); math.Abs(p-0.9) > 1e-9 {
		t.Fatalf("P(Breakfast) = %g", p)
	}
}

func TestApplyReplacesPreviousContext(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	if err := New("peter").Certain("Weekend").Apply(l); err != nil {
		t.Fatal(err)
	}
	// New context without Weekend: previous assertion must be gone.
	if err := New("peter").Certain("Workday").Certain("Weekend").Apply(l); err != nil {
		t.Fatal(err)
	}
	if err := New("peter").Certain("Workday").Apply(l); err != nil {
		t.Fatal(err)
	}
	if p := prob(t, l, "Weekend", "peter"); p != 0 {
		t.Fatalf("stale Weekend assertion survives: %g", p)
	}
	if p := prob(t, l, "Workday", "peter"); p != 1 {
		t.Fatalf("P(Workday) = %g", p)
	}
}

func TestExclusiveGroupSemantics(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	ctx := New("peter").AddExclusive("location",
		[]string{"InKitchen", "InOffice", "InHall"},
		[]float64{0.6, 0.3, 0.1})
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	both := dl.And(dl.Atom("InKitchen"), dl.Atom("InOffice"))
	ev, err := l.MembershipEvent(both, "peter")
	if err != nil {
		t.Fatal(err)
	}
	p, err := l.DB().Space().Prob(ev)
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 {
		t.Fatalf("P(two rooms at once) = %g, want 0", p)
	}
}

func TestApplyValidation(t *testing.T) {
	l := mapping.NewLoader(engine.New())
	if err := New("u").Add("C", 1.5).Apply(l); err == nil {
		t.Fatal("invalid probability accepted")
	}
	if err := New("u").AddExclusive("g", []string{"A", "B"}, []float64{0.8, 0.8}).Apply(l); err == nil {
		t.Fatal("overfull exclusive group accepted")
	}
}

func TestClockSensor(t *testing.T) {
	cases := []struct {
		when time.Time
		want []string
		not  []string
	}{
		{time.Date(2026, 6, 13, 8, 30, 0, 0, time.UTC), // Saturday morning
			[]string{"Weekend", "Morning", "Breakfast"}, []string{"Workday", "Evening"}},
		{time.Date(2026, 6, 15, 20, 0, 0, 0, time.UTC), // Monday evening
			[]string{"Workday", "Evening"}, []string{"Weekend", "Breakfast", "Morning"}},
		{time.Date(2026, 6, 15, 2, 0, 0, 0, time.UTC), // Monday night
			[]string{"Workday", "Night"}, []string{"Morning"}},
		{time.Date(2026, 6, 15, 13, 0, 0, 0, time.UTC), // Monday afternoon
			[]string{"Afternoon"}, []string{"Breakfast"}},
	}
	for i, c := range cases {
		ctx, err := SenseAll("peter", ClockSensor{Now: c.when})
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, n := range ctx.ConceptNames() {
			names[n] = true
		}
		for _, w := range c.want {
			if !names[w] {
				t.Errorf("case %d: missing %s (got %v)", i, w, ctx.ConceptNames())
			}
		}
		for _, n := range c.not {
			if names[n] {
				t.Errorf("case %d: unexpected %s", i, n)
			}
		}
	}
}

func TestLocationSensorDistribution(t *testing.T) {
	s := LocationSensor{
		Rooms:    []string{"InKitchen", "InOffice", "InHall"},
		TrueRoom: "InKitchen",
		Accuracy: 0.8,
	}
	ctx, err := SenseAll("peter", s)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, m := range ctx.Measurements {
		total += m.Prob
		if m.Concept == "InKitchen" && math.Abs(m.Prob-0.8) > 1e-9 {
			t.Fatalf("true room prob = %g", m.Prob)
		}
		if m.Exclusive != "location" {
			t.Fatalf("measurement %v not in location group", m)
		}
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Fatalf("distribution sums to %g", total)
	}
}

func TestLocationSensorValidation(t *testing.T) {
	if _, err := SenseAll("u", LocationSensor{Rooms: []string{"A"}, TrueRoom: "B", Accuracy: 0.9}); err == nil {
		t.Fatal("unknown true room accepted")
	}
	if _, err := SenseAll("u", LocationSensor{TrueRoom: "A", Accuracy: 0.9}); err == nil {
		t.Fatal("empty room list accepted")
	}
	if _, err := SenseAll("u", LocationSensor{Rooms: []string{"A"}, TrueRoom: "A", Accuracy: 2}); err == nil {
		t.Fatal("bad accuracy accepted")
	}
}

func TestActivitySensor(t *testing.T) {
	s := ActivitySensor{
		Activities:   []string{"Cooking", "Working", "Relaxing", "Sleeping"},
		TrueActivity: "Cooking",
		Confidence:   0.7,
	}
	ctx, err := SenseAll("peter", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(ctx.Measurements) != 4 {
		t.Fatalf("measurements = %v", ctx.Measurements)
	}
	for _, m := range ctx.Measurements {
		if m.Concept == "Working" && math.Abs(m.Prob-0.1) > 1e-9 {
			t.Fatalf("off-activity prob = %g, want 0.1", m.Prob)
		}
	}
	// End to end: apply and check exclusivity in the event space.
	l := mapping.NewLoader(engine.New())
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	ev, err := l.MembershipEvent(dl.And(dl.Atom("Cooking"), dl.Atom("Sleeping")), "peter")
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := l.DB().Space().Prob(ev); p != 0 {
		t.Fatalf("P(cooking while sleeping) = %g", p)
	}
}

func TestSenseAllComposes(t *testing.T) {
	ctx, err := SenseAll("peter",
		ClockSensor{Now: time.Date(2026, 6, 13, 8, 0, 0, 0, time.UTC)},
		LocationSensor{Rooms: []string{"InKitchen", "InOffice"}, TrueRoom: "InKitchen", Accuracy: 0.9},
	)
	if err != nil {
		t.Fatal(err)
	}
	l := mapping.NewLoader(engine.New())
	if err := ctx.Apply(l); err != nil {
		t.Fatal(err)
	}
	// Weekend ∧ InKitchen: independent blocks multiply: 1 × 0.9.
	ev, err := l.MembershipEvent(dl.And(dl.Atom("Weekend"), dl.Atom("InKitchen")), "peter")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := l.DB().Space().Prob(ev)
	if math.Abs(p-0.9) > 1e-9 {
		t.Fatalf("P = %g, want 0.9", p)
	}
}
