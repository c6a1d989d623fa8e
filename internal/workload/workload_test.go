package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dl"
)

func TestDefaultSpecMatchesPaperSizes(t *testing.T) {
	s := DefaultSpec()
	if s.Persons != 1000 || s.Programs != 300 || s.Genres != 12 ||
		s.Subjects != 6 || s.Activities != 4 || s.Rooms != 5 {
		t.Fatalf("spec = %+v", s)
	}
}

func TestGenerateSmall(t *testing.T) {
	d, err := Generate(SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if d.User != "person0000" {
		t.Fatalf("user = %s", d.User)
	}
	db := d.Loader.DB()
	count := func(q string) int64 {
		v, err := db.QueryScalar(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		return v.I
	}
	if n := count("SELECT COUNT(*) FROM c_Person"); n != 20 {
		t.Fatalf("persons = %d", n)
	}
	if n := count("SELECT COUNT(*) FROM c_TvProgram"); n != 15 {
		t.Fatalf("programs = %d", n)
	}
	if n := count("SELECT COUNT(*) FROM r_watched"); n != 40 {
		t.Fatalf("watched = %d", n)
	}
	// Every program has at least one genre.
	if n := count("SELECT COUNT(*) FROM (SELECT DISTINCT src FROM r_hasGenre) s"); n != 15 {
		t.Fatalf("programs with genres = %d", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.TupleCount != b.TupleCount {
		t.Fatalf("tuple counts differ: %d vs %d", a.TupleCount, b.TupleCount)
	}
	qa, _ := a.Loader.DB().QueryScalar("SELECT COUNT(*) FROM r_hasGenre")
	qb, _ := b.Loader.DB().QueryScalar("SELECT COUNT(*) FROM r_hasGenre")
	if qa.I != qb.I {
		t.Fatalf("hasGenre counts differ: %d vs %d", qa.I, qb.I)
	}
}

func TestPaperScaleTupleCount(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size dataset generation in -short mode")
	}
	d, err := Generate(DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	// "around 11000 tuples"
	if d.TupleCount < 10000 || d.TupleCount > 12500 {
		t.Fatalf("tuple count = %d, want ≈11000", d.TupleCount)
	}
}

func TestRulesAndBenchContext(t *testing.T) {
	d, err := Generate(SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	rules, err := d.Rules(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("rules = %v", rules)
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.ApplyBenchContext(4, false); err != nil {
		t.Fatal(err)
	}
	// The context concepts must be live for the user with probability 0.9.
	ev, err := d.Loader.MembershipEvent(dl.Atom(BenchContextConcept(2)), d.User)
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Loader.DB().Space().Prob(ev)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.9) > 1e-9 {
		t.Fatalf("P(BenchCtx2) = %g", p)
	}
}

func TestEndToEndRankingOnGeneratedData(t *testing.T) {
	d, err := Generate(SmallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ApplyBenchContext(3, false); err != nil {
		t.Fatal(err)
	}
	rules, _ := d.Rules(3)
	req := core.Request{User: d.User, Rules: rules, PlanRequest: core.PlanRequest{Target: dl.Atom("TvProgram")}}
	naive := core.NewNaiveRanker(d.Loader)
	fact := core.NewFactorizedRanker(d.Loader)
	rn, err := naive.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fact.Rank(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rn) != 15 || len(rf) != 15 {
		t.Fatalf("result sizes: %d, %d", len(rn), len(rf))
	}
	for i := range rn {
		if rn[i].ID != rf[i].ID || math.Abs(rn[i].Score-rf[i].Score) > 1e-9 {
			t.Fatalf("rankers disagree at %d: %v vs %v", i, rn[i], rf[i])
		}
	}
	// Scores are probabilities.
	for _, r := range rn {
		if r.Score < 0 || r.Score > 1 {
			t.Fatalf("score out of range: %v", r)
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Spec{}); err == nil {
		t.Fatal("zero spec accepted")
	}
	d, _ := Generate(SmallSpec())
	if _, err := d.Rules(-1); err == nil {
		t.Fatal("negative rule count accepted")
	}
}
