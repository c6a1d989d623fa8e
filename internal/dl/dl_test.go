package dl

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestConstructorsFold(t *testing.T) {
	a, b := Atom("A"), Atom("B")
	cases := []struct{ got, want *Expr }{
		{And(), Top()},
		{Or(), Bottom()},
		{And(a, Top()), a},
		{And(a, Bottom()), Bottom()},
		{Or(a, Top()), Top()},
		{Or(a, Bottom()), a},
		{Not(Not(a)), a},
		{Not(Top()), Bottom()},
		{Not(Bottom()), Top()},
		{And(a, a), a},
		{And(a, And(b, a)), And(a, b)},
		{Exists("r", Bottom()), Bottom()},
		{Nominal(), Bottom()},
		{Nominal("x", "x"), Nominal("x")},
	}
	for i, c := range cases {
		if !Equal(c.got, c.want) {
			t.Errorf("case %d: got %s, want %s", i, c.got, c.want)
		}
	}
}

func TestAndIsOrderInsensitive(t *testing.T) {
	a, b, c := Atom("A"), Atom("B"), Atom("C")
	if !Equal(And(a, b, c), And(c, b, a)) {
		t.Fatalf("And not canonical: %s vs %s", And(a, b, c), And(c, b, a))
	}
	if !Equal(Or(a, b), Or(b, a)) {
		t.Fatalf("Or not canonical")
	}
}

func TestParsePaperRule(t *testing.T) {
	// The paper's R1 preference: TvProgram ⊓ ∃hasGenre.{HUMAN-INTEREST}.
	e, err := Parse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}")
	if err != nil {
		t.Fatal(err)
	}
	want := And(Atom("TvProgram"), Exists("hasGenre", Nominal("HUMAN-INTEREST")))
	if !Equal(e, want) {
		t.Fatalf("parsed %s, want %s", e, want)
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"TOP",
		"BOTTOM",
		"Weekend",
		"NOT Weekend",
		"A AND B AND C",
		"A OR (B AND C)",
		"EXISTS hasSubject.{News}",
		"EXISTS locatedIn.(Room AND EXISTS partOf.{Home})",
		"{alice, bob}",
		"NOT (A OR B)",
		"TvProgram AND NOT EXISTS hasGenre.{HORROR}",
	}
	for _, in := range inputs {
		e, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		back, err := Parse(e.String())
		if err != nil {
			t.Fatalf("Parse(%q stringified as %q): %v", in, e.String(), err)
		}
		if !Equal(e, back) {
			t.Fatalf("round trip of %q: %s != %s", in, e, back)
		}
	}
}

// TestStringConcurrentFirstCalls: a shared compound expression is rendered
// once and kept; goroutines racing to the first call (run under -race) must
// all read the rendering a freshly parsed copy gives.
func TestStringConcurrentFirstCalls(t *testing.T) {
	const text = "TvProgram AND EXISTS hasGenre.{g0} AND NOT (A OR B)"
	shared := MustParse(text)
	want := MustParse(text).String()
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				got[i] = shared.String()
			}
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s != want {
			t.Errorf("goroutine %d read %q, want %q", i, s, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"A AND",
		"AND A",
		"(A",
		"{",
		"{a,",
		"{a",
		"EXISTS r",
		"EXISTS r A",
		"EXISTS .A",
		"A B",
		"A ??",
		"NOT",
		// A stray character is no name.
		"@",
		"A AND ?",
		"EXISTS r.#",
		"{%}",
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestKeywordsCaseInsensitive(t *testing.T) {
	e, err := Parse("a and not b or exists r.top")
	if err != nil {
		t.Fatal(err)
	}
	want := Or(And(Atom("a"), Not(Atom("b"))), Exists("r", Top()))
	if !Equal(e, want) {
		t.Fatalf("got %s, want %s", e, want)
	}
}

func TestSignature(t *testing.T) {
	e := MustParse("TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} AND NOT EXISTS hasSubject.{News, Sports}")
	sig := e.Signature()
	if len(sig.Concepts) != 1 || sig.Concepts[0] != "TvProgram" {
		t.Fatalf("concepts = %v", sig.Concepts)
	}
	if strings.Join(sig.Roles, ",") != "hasGenre,hasSubject" {
		t.Fatalf("roles = %v", sig.Roles)
	}
	if strings.Join(sig.Individuals, ",") != "HUMAN-INTEREST,News,Sports" {
		t.Fatalf("individuals = %v", sig.Individuals)
	}
}

func TestValidate(t *testing.T) {
	concepts := map[string]bool{"TvProgram": true}
	roles := map[string]bool{"hasGenre": true}
	ok := MustParse("TvProgram AND EXISTS hasGenre.{NEWS}")
	if err := Validate(ok, concepts, roles); err != nil {
		t.Fatal(err)
	}
	if err := Validate(MustParse("Movie"), concepts, roles); err == nil {
		t.Fatal("undeclared concept accepted")
	}
	if err := Validate(MustParse("EXISTS hasSubject.TOP"), concepts, roles); err == nil {
		t.Fatal("undeclared role accepted")
	}
}

func randDL(r *rand.Rand, depth int) *Expr {
	if depth == 0 {
		switch r.Intn(4) {
		case 0:
			return Top()
		case 1:
			return Atom([]string{"A", "B", "C"}[r.Intn(3)])
		case 2:
			return Nominal([]string{"x", "y", "z"}[r.Intn(3)])
		default:
			return Atom("D")
		}
	}
	switch r.Intn(5) {
	case 0:
		return Not(randDL(r, depth-1))
	case 1:
		return And(randDL(r, depth-1), randDL(r, depth-1))
	case 2:
		return Or(randDL(r, depth-1), randDL(r, depth-1))
	case 3:
		return Exists("r", randDL(r, depth-1))
	default:
		return randDL(r, depth-1)
	}
}

func TestQuickParseStringRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randDL(r, 4)
		back, err := Parse(e.String())
		return err == nil && Equal(e, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
