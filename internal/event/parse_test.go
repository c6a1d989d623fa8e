package event

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseBasics(t *testing.T) {
	cases := map[string]*Expr{
		"a":            Basic("a"),
		"⊤":            True(),
		"⊥":            False(),
		"TRUE":         True(),
		"false":        False(),
		"¬a":           Not(Basic("a")),
		"NOT a":        Not(Basic("a")),
		"!a":           Not(Basic("a")),
		"a ∧ b":        And(Basic("a"), Basic("b")),
		"a AND b":      And(Basic("a"), Basic("b")),
		"a & b":        And(Basic("a"), Basic("b")),
		"a ∨ b":        Or(Basic("a"), Basic("b")),
		"a | b OR c":   Or(Basic("a"), Basic("b"), Basic("c")),
		"(a ∨ b) ∧ c":  And(Or(Basic("a"), Basic("b")), Basic("c")),
		"¬(a ∧ b)":     Not(And(Basic("a"), Basic("b"))),
		"ctx_1_0_Week": Basic("ctx_1_0_Week"),
	}
	for in, want := range cases {
		got, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if !Equal(got, want) {
			t.Fatalf("Parse(%q) = %s, want %s", in, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{"", "a ∧", "(a", "a b", "∧ a", "a ∨ ∨ b", ")", "NOT"}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded", in)
		}
	}
}

func TestParseKeywordPrefixNames(t *testing.T) {
	// Names beginning with keyword letters must not be misread.
	e, err := Parse("ANDy AND ORin AND NOTa")
	if err != nil {
		t.Fatal(err)
	}
	want := And(Basic("ANDy"), Basic("ORin"), Basic("NOTa"))
	if !Equal(e, want) {
		t.Fatalf("got %s, want %s", e, want)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, []string{"a", "b", "c", "d"}, 5)
		back, err := Parse(e.String())
		return err == nil && Equal(e, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestEval(t *testing.T) {
	e := MustParse("(a ∧ ¬b) ∨ c")
	cases := []struct {
		a, b, c, want bool
	}{
		{true, false, false, true},
		{true, true, false, false},
		{false, false, true, true},
		{false, false, false, false},
	}
	for i, c := range cases {
		got := e.Eval(map[string]bool{"a": c.a, "b": c.b, "c": c.c})
		if got != c.want {
			t.Fatalf("case %d: got %v", i, got)
		}
	}
}

func TestSamplerConvergesToExactProb(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.3)
	s.Declare("b", 0.6)
	s.DeclareExclusive([]string{"g1", "g2", "g3"}, []float64{0.2, 0.5, 0.1})
	e := Or(And(Basic("a"), Basic("g2")), And(Basic("b"), Not(Basic("g1"))))
	exact := s.MustProb(e)

	sampler, err := s.NewSampler(e)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	assign := make(map[string]bool, 8)
	hits := 0
	const n = 200000
	for i := 0; i < n; i++ {
		sampler.Sample(rng, assign)
		if e.Eval(assign) {
			hits++
		}
	}
	est := float64(hits) / n
	if math.Abs(est-exact) > 0.01 {
		t.Fatalf("sampled %g, exact %g", est, exact)
	}
}

func TestSamplerExclusiveInvariant(t *testing.T) {
	s := NewSpace()
	s.DeclareExclusive([]string{"x", "y"}, []float64{0.5, 0.5})
	sampler, err := s.NewSampler(Or(Basic("x"), Basic("y")))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	assign := make(map[string]bool, 2)
	for i := 0; i < 1000; i++ {
		sampler.Sample(rng, assign)
		if assign["x"] && assign["y"] {
			t.Fatal("exclusive group members both true")
		}
	}
}

func TestSamplerUndeclaredEvent(t *testing.T) {
	s := NewSpace()
	if _, err := s.NewSampler(Basic("ghost")); err == nil {
		t.Fatal("undeclared event accepted")
	}
}

// MustParse is Parse but panics on error.
func MustParse(input string) *Expr {
	e, err := Parse(input)
	if err != nil {
		panic(err)
	}
	return e
}
