package prefs

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dl"
	"repro/internal/engine"
)

// The paper's two example rules (§4.1, §4.2).
const (
	ruleR1 = "RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8"
	ruleR2 = "RULE R2 WHEN Breakfast PREFER TvProgram AND EXISTS hasSubject.{News} WITH 0.9"
)

func TestParsePaperRules(t *testing.T) {
	r1, err := ParseRule(ruleR1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Name != "R1" || math.Abs(r1.Sigma-0.8) > 1e-12 {
		t.Fatalf("r1 = %+v", r1)
	}
	if !dl.Equal(r1.Context, dl.Atom("Weekend")) {
		t.Fatalf("context = %s", r1.Context)
	}
	wantPref := dl.And(dl.Atom("TvProgram"), dl.Exists("hasGenre", dl.Nominal("HUMAN-INTEREST")))
	if !dl.Equal(r1.Preference, wantPref) {
		t.Fatalf("preference = %s", r1.Preference)
	}
}

func TestParseRuleWithoutName(t *testing.T) {
	r, err := ParseRule("WHEN Weekend PREFER Movie WITH 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name == "" {
		t.Fatal("anonymous rule got no generated name")
	}
}

func TestRuleStringRoundTrip(t *testing.T) {
	r1 := MustParseRule(ruleR1)
	back, err := ParseRule(r1.String())
	if err != nil {
		t.Fatalf("reparse %q: %v", r1.String(), err)
	}
	if !dl.Equal(back.Context, r1.Context) || !dl.Equal(back.Preference, r1.Preference) || back.Sigma != r1.Sigma {
		t.Fatalf("round trip mismatch: %s vs %s", back, r1)
	}
}

func TestParseRuleKeywordsInsideExpressions(t *testing.T) {
	// Concept names containing the letters of keywords must not confuse the
	// splitter; keywords only match on word boundaries.
	r, err := ParseRule("WHEN Weekender PREFER Preferred WITH 0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !dl.Equal(r.Context, dl.Atom("Weekender")) || !dl.Equal(r.Preference, dl.Atom("Preferred")) {
		t.Fatalf("rule = %+v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	bad := []string{
		"",
		"PREFER A WITH 0.5",
		"WHEN A WITH 0.5",
		"WHEN A PREFER B",
		"WHEN A PREFER B WITH two",
		"WHEN A PREFER B WITH 1.5",
		"WHEN A PREFER B WITH -0.1",
		"WHEN (A PREFER B WITH 0.5",
		"RULE WHEN A PREFER B WITH 0.5 ",
		"WHEN A PREFER BOTTOM WITH 0.5",
	}
	for _, in := range bad {
		if _, err := ParseRule(in); err == nil {
			t.Errorf("ParseRule(%q) succeeded", in)
		}
	}
}

func TestDefaultRule(t *testing.T) {
	r := MustParseRule("WHEN TOP PREFER Movie WITH 0.3")
	if !r.IsDefault() {
		t.Fatal("TOP-context rule not default")
	}
	if MustParseRule(ruleR1).IsDefault() {
		t.Fatal("R1 reported default")
	}
}

func TestRepositoryBasics(t *testing.T) {
	repo := NewRepository()
	r1 := MustParseRule(ruleR1)
	r2 := MustParseRule(ruleR2)
	if err := repo.Add(r1); err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(r2); err != nil {
		t.Fatal(err)
	}
	if err := repo.Add(r1); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if repo.Len() != 2 {
		t.Fatalf("len = %d", repo.Len())
	}
	got, ok := repo.Get("R2")
	if !ok || got.Sigma != 0.9 {
		t.Fatalf("Get R2 = %+v, %v", got, ok)
	}
	rules := repo.Rules()
	if rules[0].Name != "R1" || rules[1].Name != "R2" {
		t.Fatalf("order = %v", rules)
	}
	if err := repo.Remove("R1"); err != nil {
		t.Fatal(err)
	}
	if err := repo.Remove("R1"); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, ok := repo.Get("R1"); ok {
		t.Fatal("removed rule still present")
	}
	// Index map stays consistent after removal.
	got, ok = repo.Get("R2")
	if !ok || got.Name != "R2" {
		t.Fatalf("post-remove Get = %+v, %v", got, ok)
	}
}

func TestRepositoryDefaults(t *testing.T) {
	repo := NewRepository()
	repo.Add(MustParseRule(ruleR1))
	repo.Add(MustParseRule("RULE D WHEN TOP PREFER TvProgram WITH 0.2"))
	defs := repo.Defaults()
	if len(defs) != 1 || defs[0].Name != "D" {
		t.Fatalf("defaults = %v", defs)
	}
}

func TestAddTextValidation(t *testing.T) {
	repo := NewRepository()
	if _, err := repo.AddText("nonsense"); err == nil {
		t.Fatal("nonsense accepted")
	}
	r, err := repo.AddText(ruleR1)
	if err != nil || r.Name != "R1" {
		t.Fatalf("AddText = %+v, %v", r, err)
	}
}

func TestPersistAndLoad(t *testing.T) {
	db := engine.New()
	repo := NewRepository()
	repo.Add(MustParseRule(ruleR1))
	repo.Add(MustParseRule(ruleR2))
	if err := repo.Persist(db); err != nil {
		t.Fatal(err)
	}
	back, err := LoadRepository(db)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("loaded %d rules", back.Len())
	}
	r1, _ := back.Get("R1")
	if !dl.Equal(r1.Context, dl.Atom("Weekend")) || math.Abs(r1.Sigma-0.8) > 1e-12 {
		t.Fatalf("loaded R1 = %+v", r1)
	}
	// Persist is replace-not-append.
	if err := repo.Persist(db); err != nil {
		t.Fatal(err)
	}
	back, _ = LoadRepository(db)
	if back.Len() != 2 {
		t.Fatalf("after re-persist: %d rules", back.Len())
	}
}

func TestLoadRepositoryEmptyDB(t *testing.T) {
	repo, err := LoadRepository(engine.New())
	if err != nil || repo.Len() != 0 {
		t.Fatalf("repo = %v, err = %v", repo, err)
	}
}

func TestRuleValidate(t *testing.T) {
	valid := Rule{Name: "r", Context: dl.Top(), Preference: dl.Atom("A"), Sigma: 0.5}
	if err := valid.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Rule{
		{Context: dl.Top(), Preference: dl.Atom("A"), Sigma: 0.5},
		{Name: "r", Preference: dl.Atom("A"), Sigma: 0.5},
		{Name: "r", Context: dl.Top(), Sigma: 0.5},
		{Name: "r", Context: dl.Top(), Preference: dl.Atom("A"), Sigma: 1.1},
		{Name: "r", Context: dl.Top(), Preference: dl.Bottom(), Sigma: 0.5},
	}
	for i, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, r)
		}
	}
}

func TestRuleStringMentionsAllParts(t *testing.T) {
	s := MustParseRule(ruleR2).String()
	for _, part := range []string{"WHEN", "PREFER", "WITH", "Breakfast", "News", "0.9"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String() = %q missing %q", s, part)
		}
	}
}

// IsDefault reports whether the rule applies in any context (§4.1:
// "'default' preference rules, which are valid in any context").
func (r Rule) IsDefault() bool { return r.Context.Op() == dl.OpTop }

// AddText parses and adds a rule in the textual syntax.
func (r *Repository) AddText(input string) (Rule, error) {
	rule, err := ParseRule(input)
	if err != nil {
		return Rule{}, err
	}
	return rule, r.Add(rule)
}

// Get returns a rule by name.
func (r *Repository) Get(name string) (Rule, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	idx, ok := r.byKey[name]
	if !ok {
		return Rule{}, false
	}
	return r.rules[idx], true
}

// Defaults returns only the default (context-free) rules.
func (r *Repository) Defaults() []Rule {
	var out []Rule
	for _, rule := range r.Rules() {
		if rule.IsDefault() {
			out = append(out, rule)
		}
	}
	return out
}
