package event

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestConstants(t *testing.T) {
	s := NewSpace()
	if p := s.MustProb(True()); p != 1 {
		t.Fatalf("P(⊤) = %g, want 1", p)
	}
	if p := s.MustProb(False()); p != 0 {
		t.Fatalf("P(⊥) = %g, want 0", p)
	}
}

func TestBasicProb(t *testing.T) {
	s := NewSpace()
	if err := s.Declare("e1", 0.3); err != nil {
		t.Fatal(err)
	}
	if p := s.MustProb(Basic("e1")); !almostEqual(p, 0.3) {
		t.Fatalf("P(e1) = %g, want 0.3", p)
	}
	if p := s.MustProb(Not(Basic("e1"))); !almostEqual(p, 0.7) {
		t.Fatalf("P(¬e1) = %g, want 0.7", p)
	}
}

func TestDeclareValidation(t *testing.T) {
	s := NewSpace()
	if err := s.Declare("e", -0.1); err == nil {
		t.Fatal("negative probability accepted")
	}
	if err := s.Declare("e", 1.1); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	if err := s.Declare("e", math.NaN()); err == nil {
		t.Fatal("NaN probability accepted")
	}
	if err := s.DeclareExclusive([]string{"n1", "n2"}, []float64{math.NaN(), 0.1}); err == nil {
		t.Fatal("NaN group probability accepted")
	}
	if err := s.Declare("e", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := s.Declare("e", 0.5); err != nil {
		t.Fatalf("idempotent redeclare rejected: %v", err)
	}
	if err := s.Declare("e", 0.6); err == nil {
		t.Fatal("conflicting redeclare accepted")
	}
}

func TestIndependentConjunction(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	s.Declare("b", 0.4)
	if p := s.MustProb(And(Basic("a"), Basic("b"))); !almostEqual(p, 0.2) {
		t.Fatalf("P(a∧b) = %g, want 0.2", p)
	}
	if p := s.MustProb(Or(Basic("a"), Basic("b"))); !almostEqual(p, 0.7) {
		t.Fatalf("P(a∨b) = %g, want 0.7", p)
	}
}

func TestSharedLineageNotDoubleCounted(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	// a ∧ ¬a is impossible; naive multiplication would give 0.25.
	if p := s.MustProb(And(Basic("a"), Not(Basic("a")))); p != 0 {
		t.Fatalf("P(a∧¬a) = %g, want 0", p)
	}
	// a ∨ ¬a is certain.
	if p := s.MustProb(Or(Basic("a"), Not(Basic("a")))); p != 1 {
		t.Fatalf("P(a∨¬a) = %g, want 1", p)
	}
	// Idempotence: a ∧ a has probability P(a).
	if p := s.MustProb(And(Basic("a"), Basic("a"))); !almostEqual(p, 0.5) {
		t.Fatalf("P(a∧a) = %g, want 0.5", p)
	}
}

func TestExclusiveGroup(t *testing.T) {
	s := NewSpace()
	err := s.DeclareExclusive([]string{"kitchen", "office", "hall"}, []float64{0.5, 0.3, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	// Mutually exclusive: both at once is impossible.
	if p := s.MustProb(And(Basic("kitchen"), Basic("office"))); p != 0 {
		t.Fatalf("P(kitchen∧office) = %g, want 0", p)
	}
	// Disjunction adds up exactly.
	if p := s.MustProb(Or(Basic("kitchen"), Basic("office"))); !almostEqual(p, 0.8) {
		t.Fatalf("P(kitchen∨office) = %g, want 0.8", p)
	}
	// Negation accounts for residual mass (0.1 unmentioned + 0.1 nothing).
	if p := s.MustProb(Not(Or(Basic("kitchen"), Basic("office"), Basic("hall")))); !almostEqual(p, 0.1) {
		t.Fatalf("P(nowhere) = %g, want 0.1", p)
	}
}

func TestExclusiveGroupValidation(t *testing.T) {
	s := NewSpace()
	if err := s.DeclareExclusive([]string{"a", "b"}, []float64{0.8, 0.5}); err == nil {
		t.Fatal("overfull exclusive group accepted")
	}
	if err := s.DeclareExclusive(nil, nil); err == nil {
		t.Fatal("empty exclusive group accepted")
	}
	if err := s.DeclareExclusive([]string{"a"}, []float64{0.2, 0.3}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	s.Declare("x", 0.5)
	if err := s.DeclareExclusive([]string{"x", "y"}, []float64{0.2, 0.3}); err == nil {
		t.Fatal("group reusing declared event accepted")
	}
}

func TestUndeclaredBasicIsError(t *testing.T) {
	s := NewSpace()
	if _, err := s.Prob(Basic("ghost")); err == nil {
		t.Fatal("undeclared basic event accepted")
	}
	if _, err := s.Prob(And(True(), Basic("ghost"))); err == nil {
		t.Fatal("undeclared basic event inside composite accepted")
	}
}

func TestConstructorsFold(t *testing.T) {
	a := Basic("a")
	cases := []struct {
		got, want *Expr
	}{
		{And(), True()},
		{Or(), False()},
		{And(a, True()), a},
		{Or(a, False()), a},
		{And(a, False()), False()},
		{Or(a, True()), True()},
		{Not(Not(a)), a},
		{Not(True()), False()},
		{Not(False()), True()},
		{And(a, a), a},
		{And(And(a, Basic("b")), Basic("c")), And(a, Basic("b"), Basic("c"))},
	}
	for i, c := range cases {
		if !Equal(c.got, c.want) {
			t.Errorf("case %d: got %s, want %s", i, c.got, c.want)
		}
	}
}

func TestString(t *testing.T) {
	e := Or(And(Basic("a"), Not(Basic("b"))), Basic("c"))
	want := "(a ∧ ¬b) ∨ c"
	if e.String() != want {
		t.Fatalf("String() = %q, want %q", e.String(), want)
	}
}

func TestBasics(t *testing.T) {
	e := Or(And(Basic("b"), Basic("a")), Not(Basic("c")))
	got := e.Basics()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Basics() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Basics() = %v, want %v", got, want)
		}
	}
}

// TestIndependent: two expressions are independent exactly when their
// Blocks are disjoint.
func TestIndependent(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	s.Declare("b", 0.5)
	s.DeclareExclusive([]string{"g1", "g2"}, []float64{0.4, 0.4})
	disjoint := func(x, y *Expr) bool {
		t.Helper()
		bx, by := map[string]bool{}, map[string]bool{}
		if err := s.Blocks(x, bx); err != nil {
			t.Fatal(err)
		}
		if err := s.Blocks(y, by); err != nil {
			t.Fatal(err)
		}
		for k := range bx {
			if by[k] {
				return false
			}
		}
		return true
	}
	if !disjoint(Basic("a"), Basic("b")) {
		t.Fatal("a,b reported correlated")
	}
	if disjoint(Basic("a"), And(Basic("a"), Basic("b"))) {
		t.Fatal("a and a∧b reported independent")
	}
	if disjoint(Basic("g1"), Basic("g2")) {
		t.Fatal("members of one exclusive group reported independent")
	}
}

func TestCacheInvalidationOnDeclare(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.5)
	e := And(Basic("a"), Basic("b"))
	if _, err := s.Prob(e); err == nil {
		t.Fatal("expected error before b declared")
	}
	s.Declare("b", 0.5)
	p, err := s.Prob(e)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(p, 0.25) {
		t.Fatalf("P(a∧b) = %g, want 0.25", p)
	}
}

// brute computes the probability of e by enumerating all assignments of the
// given independent events — an oracle for the property tests.
func brute(e *Expr, names []string, probs map[string]float64) float64 {
	total := 0.0
	n := len(names)
	for mask := 0; mask < 1<<n; mask++ {
		assign := make(map[string]bool, n)
		p := 1.0
		for i, name := range names {
			if mask&(1<<i) != 0 {
				assign[name] = true
				p *= probs[name]
			} else {
				p *= 1 - probs[name]
			}
		}
		if e.evaluate(assign) {
			total += p
		}
	}
	return total
}

// randExpr builds a random expression over the given basic names.
func randExpr(r *rand.Rand, names []string, depth int) *Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return Basic(names[r.Intn(len(names))])
	}
	switch r.Intn(3) {
	case 0:
		return Not(randExpr(r, names, depth-1))
	case 1:
		return And(randExpr(r, names, depth-1), randExpr(r, names, depth-1))
	default:
		return Or(randExpr(r, names, depth-1), randExpr(r, names, depth-1))
	}
}

func TestProbMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	names := []string{"p", "q", "r", "s"}
	for trial := 0; trial < 200; trial++ {
		s := NewSpace()
		probs := make(map[string]float64, len(names))
		for _, n := range names {
			p := r.Float64()
			probs[n] = p
			s.Declare(n, p)
		}
		e := randExpr(r, names, 4)
		got := s.MustProb(e)
		want := brute(e, names, probs)
		if !almostEqual(got, want) {
			t.Fatalf("trial %d: P(%s) = %g, brute force %g", trial, e, got, want)
		}
	}
}

func TestQuickProbabilityBounds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func(p1, p2, p3 float64) bool {
		clamp := func(x float64) float64 {
			x = math.Abs(x)
			return x - math.Floor(x)
		}
		s := NewSpace()
		s.Declare("x", clamp(p1))
		s.Declare("y", clamp(p2))
		s.Declare("z", clamp(p3))
		e := randExpr(r, []string{"x", "y", "z"}, 5)
		p := s.MustProb(e)
		return p >= -1e-12 && p <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		s := NewSpace()
		names := []string{"a", "b", "c"}
		for _, n := range names {
			s.Declare(n, rr.Float64())
		}
		x := randExpr(r, names, 3)
		y := randExpr(r, names, 3)
		lhs := s.MustProb(Not(And(x, y)))
		rhs := s.MustProb(Or(Not(x), Not(y)))
		return almostEqual(lhs, rhs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestProbCacheConcurrent(t *testing.T) {
	s := NewSpace()
	s.Declare("a", 0.3)
	s.Declare("b", 0.6)
	e := Or(Basic("a"), Basic("b"))
	done := make(chan float64, 16)
	for i := 0; i < 16; i++ {
		go func() { done <- s.MustProb(e) }()
	}
	for i := 0; i < 16; i++ {
		if p := <-done; !almostEqual(p, 0.72) {
			t.Fatalf("concurrent Prob = %g, want 0.72", p)
		}
	}
}
