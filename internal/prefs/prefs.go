// Package prefs implements the paper's scored preference rules (§4.1):
// tuples (Context, Preference, σ) where Context and Preference are
// Description Logic concept expressions and σ has the history semantics of
// §3.2. It provides the rule type, a textual rule syntax, a repository with
// validation and default rules, and persistence into the engine's rule
// repository table (§5: "all preference rules together are stored as rows
// in a repository table").
package prefs

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/dl"
	"repro/internal/engine"
)

// Rule is one scored preference rule. Sigma is "the probability that
// whenever we take a random context in the past [matching Context], if the
// user was able to choose a document [matching Preference], the chance that
// … he would actually choose [such a document]" (§4.1).
type Rule struct {
	Name       string
	Context    *dl.Expr
	Preference *dl.Expr
	Sigma      float64
}

// Validate checks structural invariants of the rule.
func (r Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("prefs: rule without a name")
	}
	if r.Context == nil || r.Preference == nil {
		return fmt.Errorf("prefs: rule %s missing context or preference", r.Name)
	}
	if r.Sigma < 0 || r.Sigma > 1 {
		return fmt.Errorf("prefs: rule %s has σ = %g outside [0,1]", r.Name, r.Sigma)
	}
	if r.Preference.Op() == dl.OpBottom {
		return fmt.Errorf("prefs: rule %s prefers the empty concept", r.Name)
	}
	return nil
}

// String renders the rule in the parsable WHEN/PREFER/WITH syntax.
func (r Rule) String() string {
	return fmt.Sprintf("WHEN %s PREFER %s WITH %g", r.Context, r.Preference, r.Sigma)
}

// ParseRule parses the textual rule syntax
//
//	[RULE <name>] WHEN <context-expr> PREFER <preference-expr> WITH <σ>
//
// where both expressions use the dl package syntax. Example (the paper's
// R1): "WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST}
// WITH 0.8".
func ParseRule(input string) (Rule, error) {
	rest := strings.TrimSpace(input)
	var name string
	if m, ok := cutKeyword(rest, "RULE"); ok {
		fields := strings.Fields(m)
		if len(fields) == 0 {
			return Rule{}, fmt.Errorf("prefs: RULE requires a name in %q", input)
		}
		name = fields[0]
		rest = strings.TrimSpace(m[strings.Index(m, name)+len(name):])
	}
	body, ok := cutKeyword(rest, "WHEN")
	if !ok {
		return Rule{}, fmt.Errorf("prefs: missing WHEN in %q", input)
	}
	ctxText, prefPart, ok := splitKeyword(body, "PREFER")
	if !ok {
		return Rule{}, fmt.Errorf("prefs: missing PREFER in %q", input)
	}
	prefText, sigmaText, ok := splitKeyword(prefPart, "WITH")
	if !ok {
		return Rule{}, fmt.Errorf("prefs: missing WITH in %q", input)
	}
	ctx, err := dl.Parse(ctxText)
	if err != nil {
		return Rule{}, fmt.Errorf("prefs: context: %w", err)
	}
	pref, err := dl.Parse(prefText)
	if err != nil {
		return Rule{}, fmt.Errorf("prefs: preference: %w", err)
	}
	var sigma float64
	if _, err := fmt.Sscanf(strings.TrimSpace(sigmaText), "%g", &sigma); err != nil {
		return Rule{}, fmt.Errorf("prefs: bad σ %q", strings.TrimSpace(sigmaText))
	}
	if name == "" {
		name = fmt.Sprintf("rule-%x", hashString(input))
	}
	r := Rule{Name: name, Context: ctx, Preference: pref, Sigma: sigma}
	if err := r.Validate(); err != nil {
		return Rule{}, err
	}
	return r, nil
}

// MustParseRule is ParseRule but panics on error.
func MustParseRule(input string) Rule {
	r, err := ParseRule(input)
	if err != nil {
		panic(err)
	}
	return r
}

// cutKeyword strips a leading keyword (case-insensitive, word-aligned) and
// returns the remainder.
func cutKeyword(s, kw string) (string, bool) {
	trimmed := strings.TrimSpace(s)
	if len(trimmed) < len(kw) || !strings.EqualFold(trimmed[:len(kw)], kw) {
		return s, false
	}
	rest := trimmed[len(kw):]
	if rest != "" && !isSpace(rest[0]) {
		return s, false
	}
	return strings.TrimSpace(rest), true
}

// splitKeyword splits s at the first word-aligned occurrence of kw outside
// any nesting-sensitive construct (the rule grammar has none, so a simple
// word scan suffices).
func splitKeyword(s, kw string) (before, after string, ok bool) {
	upper := strings.ToUpper(s)
	kwU := strings.ToUpper(kw)
	for i := 0; i+len(kwU) <= len(upper); i++ {
		if upper[i:i+len(kwU)] != kwU {
			continue
		}
		if i > 0 && !isSpace(s[i-1]) {
			continue
		}
		end := i + len(kwU)
		if end < len(s) && !isSpace(s[end]) {
			continue
		}
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[end:]), true
	}
	return "", "", false
}

func isSpace(b byte) bool { return b == ' ' || b == '\t' || b == '\n' || b == '\r' }

func hashString(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Repository holds a user's scored preference rules. Safe for concurrent
// use.
type Repository struct {
	mu    sync.RWMutex
	rules []Rule
	byKey map[string]int
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{byKey: make(map[string]int)}
}

// Add validates and appends a rule; rule names must be unique.
func (r *Repository) Add(rule Rule) error {
	if err := rule.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byKey[rule.Name]; ok {
		return fmt.Errorf("prefs: rule %q already exists", rule.Name)
	}
	r.byKey[rule.Name] = len(r.rules)
	r.rules = append(r.rules, rule)
	return nil
}

// Remove deletes a rule by name.
func (r *Repository) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx, ok := r.byKey[name]
	if !ok {
		return fmt.Errorf("prefs: no rule %q", name)
	}
	r.rules = append(r.rules[:idx], r.rules[idx+1:]...)
	delete(r.byKey, name)
	for i := idx; i < len(r.rules); i++ {
		r.byKey[r.rules[i].Name] = i
	}
	return nil
}

// Rules returns the rules in insertion order.
func (r *Repository) Rules() []Rule {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Rule, len(r.rules))
	copy(out, r.rules)
	return out
}

// Any reports whether match accepts one of the rules, asked in insertion
// order under the read lock — Rules without the copy. match must not call
// back into the repository.
func (r *Repository) Any(match func(Rule) bool) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, rule := range r.rules {
		if match(rule) {
			return true
		}
	}
	return false
}

// Len returns the number of rules.
func (r *Repository) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.rules)
}

// repoTable is the SQL repository table name (§5).
const repoTable = "pref_rules"

// Persist stores the repository into the database's pref_rules table,
// replacing previous contents: one row per rule with the textual context
// and preference expressions and the score, exactly the paper's layout
// ("the name of the preference view, the name of the context view, and the
// score of the rule") with expressions instead of opaque view names so the
// rules survive round trips.
func (r *Repository) Persist(db *engine.DB) error {
	if !db.HasTable(repoTable) {
		if _, err := db.Exec(fmt.Sprintf(
			"CREATE TABLE %s (name TEXT, ctx TEXT, pref TEXT, sigma FLOAT)", repoTable)); err != nil {
			return err
		}
	} else if _, err := db.Exec("DELETE FROM " + repoTable); err != nil {
		return err
	}
	for _, rule := range r.Rules() {
		if err := db.InsertRow(repoTable, rule.Name, rule.Context.String(), rule.Preference.String(), rule.Sigma); err != nil {
			return err
		}
	}
	return nil
}

// LoadRepository reads the pref_rules table back into a repository.
func LoadRepository(db *engine.DB) (*Repository, error) {
	repo := NewRepository()
	if !db.HasTable(repoTable) {
		return repo, nil
	}
	res, err := db.Query("SELECT name, ctx, pref, sigma FROM " + repoTable)
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		ctx, err := dl.Parse(row[1].S)
		if err != nil {
			return nil, fmt.Errorf("prefs: stored rule %s: %w", row[0].S, err)
		}
		pref, err := dl.Parse(row[2].S)
		if err != nil {
			return nil, fmt.Errorf("prefs: stored rule %s: %w", row[0].S, err)
		}
		if err := repo.Add(Rule{Name: row[0].S, Context: ctx, Preference: pref, Sigma: row[3].F}); err != nil {
			return nil, err
		}
	}
	return repo, nil
}
