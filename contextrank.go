// Package contextrank is a context-aware preference ranking library: a Go
// reproduction of "Ranking Query Results using Context-Aware Preferences"
// (van Bunningen, Fokkinga, Apers, Feng — ICDE 2007 Workshops).
//
// The library scores database tuples by the probability that each is the
// "ideal document" for the user's current context, using scored preference
// rules (Context, Preference, σ) whose Context and Preference are
// Description Logic concept expressions and whose σ has an explanatory
// semantics grounded in the user's history. Uncertain context (sensed) and
// uncertain document features are carried through exactly via probabilistic
// event expressions.
//
// A System bundles the embedded probabilistic relational engine, the
// DL-to-SQL mapping layer and the rule repository, and ranks with the
// factorized ranker or its naive reference:
//
//	sys := contextrank.NewSystem()
//	sys.DeclareConcept("TvProgram")
//	sys.DeclareRole("hasGenre")
//	sys.AssertConcept("TvProgram", "Oprah", 1.0)
//	sys.AssertRole("hasGenre", "Oprah", "HUMAN-INTEREST", 0.85)
//	sys.AddRule("RULE R1 WHEN Weekend PREFER TvProgram AND EXISTS hasGenre.{HUMAN-INTEREST} WITH 0.8")
//	sys.SetContext(contextrank.NewContext("peter").Certain("Weekend"))
//	results, err := sys.Rank("peter", "TvProgram")
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-versus-measured record.
package contextrank

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dl"
	"repro/internal/engine"
	"repro/internal/event"
	"repro/internal/history"
	"repro/internal/ir"
	"repro/internal/mapping"
	"repro/internal/prefs"
	"repro/internal/situation"
	"repro/internal/sql"
	"repro/internal/storage"
)

// Re-exported types so downstream users need only this package.
type (
	// Rule is a scored preference rule (Context, Preference, σ).
	Rule = prefs.Rule
	// Result is one ranked candidate with optional explanation.
	Result = core.Result
	// Explanation is the per-rule trace attached to a Result.
	Explanation = core.Explanation
	// Context is the situated user's uncertain context.
	Context = situation.Context
	// Sensor contributes measurements to a Context.
	Sensor = situation.Sensor
	// QueryResult is a materialized SQL result set.
	QueryResult = sql.Result
	// HistoryLog is an append-only log of choice episodes.
	HistoryLog = history.Log
	// Episode is one historical choice situation.
	Episode = history.Episode
	// HistoryDoc is a candidate document inside an Episode.
	HistoryDoc = history.Doc
	// Estimate is a mined σ estimate.
	Estimate = history.Estimate
	// IRIndex is a feature-frequency index for the query-dependent score.
	IRIndex = ir.Index
	// IRDocument is one bag-of-features document in an IRIndex.
	IRDocument = ir.Document
)

// NewContext returns an empty context for the given user individual.
func NewContext(user string) *Context { return situation.New(user) }

// SenseContext builds a context by running the given sensors.
func SenseContext(user string, sensors ...Sensor) (*Context, error) {
	return situation.SenseAll(user, sensors...)
}

// ParseRule parses the textual rule syntax
// "[RULE name] WHEN <ctx> PREFER <pref> WITH <σ>".
func ParseRule(text string) (Rule, error) { return prefs.ParseRule(text) }

// Algorithm selects a ranking implementation.
type Algorithm string

// Available ranking algorithms.
const (
	// AlgorithmFactorized is the optimized ranker (§6 extension): exact,
	// linear in the number of independent rules. The default.
	AlgorithmFactorized Algorithm = "factorized"
	// AlgorithmNaive is the literal §3.3 double sum — the reference
	// semantics, exponential in the number of rules. A rank whose
	// 2^rules × (candidates+1) states exceed 2^20 is refused before it
	// enumerates.
	AlgorithmNaive Algorithm = "naive"
)

// naiveStateBudget bounds the states one naive rank may enumerate. It admits
// 8 rules × 300 candidates and 17 rules × 2 candidates, not 17 rules × 17.
const naiveStateBudget = 1 << 20

// RankOptions tune a Rank call.
type RankOptions struct {
	Algorithm Algorithm // defaults to AlgorithmFactorized
	Threshold float64   // drop scores <= Threshold
	Limit     int       // keep at most Limit results (0 = all)
	// TopK, when positive, asks for only the best k results — exactly the
	// first k of the full ranking (identical order and tie-breaking). The
	// compiled-plan path selects them with a bounded heap instead of
	// sorting the whole catalog; the naive ranker truncates. 0 disables,
	// negative is an error.
	TopK    int
	Explain bool // attach per-rule explanations
}

// System bundles the engine, the DL mapping and the rule repository. Create
// with NewSystem.
//
// # Locking contract
//
// Every component a System is built from is individually safe for
// concurrent use: the SQL executor guards its view registry with an
// RWMutex (DDL takes the write lock), the storage tables and catalog are
// RWMutex-protected, the event space serializes declarations and guards
// its change record with its own mutex (it keeps no probabilities; its
// generation is an atomic counter), the mapping loader locks
// its vocabulary and compiled-view cache, and the rule repository and
// history log are RWMutex-protected. The per-System event-name counter
// (evSeq) is a sync/atomic counter, so none of these race at the memory
// level.
//
// What the components cannot provide is cross-call atomicity: a mutator
// such as SetContext is a multi-step transaction (clear the previous
// context's concept assertions, declare fresh basic events, assert the new
// memberships), and a Rank running between those steps observes a
// half-applied context — no data race, but a semantically torn read. The
// same holds for AddRule (auto-declaring context concepts before
// registering the rule) and for AssertConcept/AssertRole versus an
// in-flight ranking. Therefore:
//
//   - Concurrent readers are safe: any number of goroutines may call
//     Rank, RankWith, RankQuery, RankGroup and Query at once. (Ranking may
//     lazily compile concept views, but view compilation is internally
//     synchronized and idempotent.)
//   - Mutators — DeclareConcept, DeclareRole, SubConcept, AssertConcept,
//     AssertRole, AddRule, SetContext, Exec, RestoreSystem-adjacent setup
//     — must be externally serialized against all readers.
//
// internal/serve.Facade packages exactly this discipline (readers share an
// RLock, mutators take the write lock and bump an invalidation epoch);
// servers should wrap a System in it rather than hand-rolling locks.
type System struct {
	db     *engine.DB
	loader *mapping.Loader
	repo   *prefs.Repository
	log    *history.Log
	evSeq  atomic.Int64
}

// NewSystem creates an empty system with a fresh database.
func NewSystem() *System {
	db := engine.New()
	return &System{db: db, loader: mapping.NewLoader(db), repo: prefs.NewRepository(), log: history.NewLog()}
}

// DB exposes the embedded database for direct SQL (SELECT/CREATE/INSERT…).
func (s *System) DB() *engine.DB { return s.db }

// Loader exposes the DL mapping layer for advanced use.
func (s *System) Loader() *mapping.Loader { return s.loader }

// Rules returns the rule repository.
func (s *System) Rules() *prefs.Repository { return s.repo }

// History returns the system's choice log (for σ mining).
func (s *System) History() *history.Log { return s.log }

// DeclareConcept registers an atomic concept (idempotent).
func (s *System) DeclareConcept(names ...string) error {
	for _, n := range names {
		if err := s.loader.DeclareConcept(n); err != nil {
			return err
		}
	}
	return nil
}

// DeclareRole registers a role (idempotent).
func (s *System) DeclareRole(names ...string) error {
	for _, n := range names {
		if err := s.loader.DeclareRole(n); err != nil {
			return err
		}
	}
	return nil
}

// SubConcept checks the axiom sub ⊑ super (super in DL syntax): sub must be
// a name a rule can mention and super must parse. It records nothing — no
// ranking, view or query reasons over axioms — so an accepted axiom changes
// no result; the serving layer journals it as it was sent.
func (s *System) SubConcept(sub, super string) error {
	if err := mapping.CheckName("concept", sub); err != nil {
		return err
	}
	_, err := dl.Parse(super)
	return err
}

// freshEvent declares a new basic event with probability p and returns it.
func (s *System) freshEvent(prefix string, p float64) (*event.Expr, error) {
	name := fmt.Sprintf("%s_%d", prefix, s.evSeq.Add(1))
	if err := s.db.Space().Declare(name, p); err != nil {
		return nil, err
	}
	return event.Basic(name), nil
}

// AssertConcept asserts id ∈ concept with the given probability: 1 is a
// certain assertion, anything in (0,1) creates a fresh independent basic
// event carrying the uncertainty.
func (s *System) AssertConcept(concept, id string, prob float64) error {
	ev, err := s.assertionEvent("c", prob)
	if err != nil {
		return err
	}
	return s.loader.AssertConcept(concept, id, ev)
}

// AssertRole asserts (src, dst) ∈ role with the given probability.
func (s *System) AssertRole(role, src, dst string, prob float64) error {
	ev, err := s.assertionEvent("r", prob)
	if err != nil {
		return err
	}
	return s.loader.AssertRole(role, src, dst, ev)
}

func (s *System) assertionEvent(prefix string, prob float64) (*event.Expr, error) {
	switch {
	case prob == 1:
		return event.True(), nil
	case prob > 0 && prob < 1:
		return s.freshEvent(prefix, prob)
	default:
		return nil, fmt.Errorf("contextrank: assertion probability %g outside (0,1]", prob)
	}
}

// AddRule parses and registers a scored preference rule, validating its
// vocabulary against the declared concepts and roles.
func (s *System) AddRule(text string) (Rule, error) {
	rule, err := prefs.ParseRule(text)
	if err != nil {
		return Rule{}, err
	}
	if err := s.validateRuleVocabulary(rule); err != nil {
		return Rule{}, err
	}
	return rule, s.repo.Add(rule)
}

// validateRuleVocabulary checks that a rule's preference uses declared
// vocabulary. Context concepts may be declared lazily by SetContext, so
// they are auto-declared here instead of rejected.
func (s *System) validateRuleVocabulary(rule Rule) error {
	for _, c := range rule.Context.Signature().Concepts {
		if err := s.loader.DeclareConcept(c); err != nil {
			return err
		}
	}
	sig := rule.Preference.Signature()
	for _, c := range sig.Concepts {
		if !s.loader.HasConcept(c) {
			return fmt.Errorf("contextrank: rule %s prefers undeclared concept %q", rule.Name, c)
		}
	}
	for _, r := range sig.Roles {
		if !s.loader.HasRole(r) {
			return fmt.Errorf("contextrank: rule %s uses undeclared role %q", rule.Name, r)
		}
	}
	for _, r := range rule.Context.Signature().Roles {
		if !s.loader.HasRole(r) {
			return fmt.Errorf("contextrank: rule %s context uses undeclared role %q", rule.Name, r)
		}
	}
	return nil
}

// SetContext applies the user's current context, replacing the previous
// one — whoever applied it: a System ranks for one situated user at a time
// unless every context goes through SetUserContext.
func (s *System) SetContext(ctx *Context) error { return ctx.Apply(s.loader) }

// SetUserContext replaces the context ctx.User applied before and leaves
// every other user's applied context in place, at a cost independent of how
// many users have one — the entry point for a system shared by many situated
// users (internal/serve's sessions). Users must assert disjoint memberships
// into dedicated context concepts; see situation.Context.ApplyOwned.
func (s *System) SetUserContext(ctx *Context) error {
	_, err := ctx.ApplyOwned(s.loader)
	return err
}

// Rank scores the members of the target concept expression (DL syntax) for
// the user with the repository's rules, using default options.
func (s *System) Rank(user, target string) ([]Result, error) {
	return s.RankWith(user, target, RankOptions{})
}

// RankWith is Rank with explicit options.
func (s *System) RankWith(user, target string, opts RankOptions) ([]Result, error) {
	res, _, err := s.RankTarget(user, nil, target, opts)
	return res, err
}

// Membership is who is in a concept expression — a shared, read-only handle
// from the loader's memo. Current() reports whether it still is who is in it.
type Membership = mapping.Membership

// RankTarget is RankWith — or, given a plan compiled for user, RankWithPlan —
// that also returns the target's membership handle: the candidate list the
// ranking scored. While the handle is Current() no write has reached the
// target's members, which is what lets the serving layer keep a ranking whose
// target mentions other users' session vocabulary only as long as it is true.
// The target resolves through the loader's memo by its text, so a text ranked
// before is not parsed again.
func (s *System) RankTarget(user string, plan *RankPlan, target string, opts RankOptions) ([]Result, *Membership, error) {
	members, err := s.loader.MembersOf(target)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.rank(user, plan, opts, opts.planRequest(members, nil))
	return res, members, err
}

// RankCandidates scores an explicit candidate list for the user with the
// repository's rules — RankQuery without the query, for callers that
// already hold the candidate ids (e.g. the serving layer's batch
// endpoint). Given a plan compiled for user it ranks against the plan, as
// RankTarget does.
func (s *System) RankCandidates(user string, plan *RankPlan, candidates []string, opts RankOptions) ([]Result, error) {
	return s.rank(user, plan, opts, opts.planRequest(nil, candidates))
}

// planRequest shapes the options as the core request for one resolved target
// or candidate list — the one place the root package's request shape becomes
// core's.
func (o RankOptions) planRequest(members *Membership, candidates []string) core.PlanRequest {
	return core.PlanRequest{
		Members:    members,
		Candidates: candidates,
		Threshold:  o.Threshold,
		Limit:      o.Limit,
		TopK:       o.TopK,
		Explain:    o.Explain,
	}
}

// KnownAlgorithm reports whether alg names a ranking implementation (the
// empty string counts: it is the factorized default). The serving layer
// validates batch requests against this so the accepted set cannot drift
// from the ranker selector below.
func KnownAlgorithm(alg Algorithm) bool {
	switch alg {
	case "", AlgorithmFactorized, AlgorithmNaive:
		return true
	}
	return false
}

// rank ranks req for user against plan when one is given, otherwise with
// the ranker opts.Algorithm names over the repository's current rules.
func (s *System) rank(user string, plan *RankPlan, opts RankOptions, req core.PlanRequest) ([]Result, error) {
	if plan != nil {
		if err := planOptsOK(opts); err != nil {
			return nil, err
		}
		return plan.Rank(req)
	}
	full := core.Request{User: user, Rules: s.repo.Rules(), PlanRequest: req}
	switch opts.Algorithm {
	case "", AlgorithmFactorized:
		return core.Rank(s.loader, full)
	case AlgorithmNaive:
		naive := core.NewNaiveRanker(s.loader)
		naive.StateBudget = naiveStateBudget
		return naive.Rank(full)
	}
	return nil, fmt.Errorf("contextrank: unknown algorithm %q", opts.Algorithm)
}

// RankPlan is a compiled, reusable ranking plan: the per-(user, rule set,
// applied context) work of the factorized ranker — rule resolution, context
// pruning, correlation clustering and the context-state probability tables
// — hoisted out of the per-candidate loop. Compile one with
// CompileRankPlan and rank any number of targets or candidate lists
// against it. A plan answers for the user's context as applied when it
// compiled (a re-apply retires the old context's events, after which the
// plan's methods fail rather than misrank) and for the preference
// memberships it holds, which plan.Current() checks against the tables'
// write versions; a plan that fell behind on the context is compiled again
// (CompileRankPlan), one that fell behind only on the memberships is
// refreshed (RefreshRankPlan). internal/serve caches one plan per user on
// exactly those terms.
type RankPlan = core.Plan

// CompileRankPlan compiles the repository's rules for one situated user
// into a reusable RankPlan. A rule set whose candidate-independent
// correlation clusters are too large to enumerate still compiles: the plan
// then clusters per candidate (slower, same scores), and callers need not
// care which mode they got.
func (s *System) CompileRankPlan(user string) (*RankPlan, error) {
	return core.CompilePlan(s.loader, user, s.repo.Rules(), nil)
}

// RefreshRankPlan compiles plan's user again, keeping plan's context half —
// each rule's context event, probability and block keys — and resolving the
// preference half afresh: the compile for a plan whose preference handles
// went stale (plan.Current() false) while the user's context and everything a
// rule's context reads stood still, which the caller vouches for. A plan
// compiled under another rule list is compiled in full.
func (s *System) RefreshRankPlan(plan *RankPlan) (*RankPlan, error) {
	return core.CompilePlan(s.loader, plan.User(), s.repo.Rules(), plan)
}

// RankWithPlan ranks the members of the target concept expression against
// an already compiled plan — the factorized algorithm with its compile
// step amortized away. opts.Algorithm must be empty or AlgorithmFactorized.
func (s *System) RankWithPlan(plan *RankPlan, target string, opts RankOptions) ([]Result, error) {
	res, _, err := s.RankTarget(plan.User(), plan, target, opts)
	return res, err
}

// planOptsOK rejects options that name a non-factorized algorithm: a plan
// is a compiled factorized ranker, silently ignoring the algorithm would
// rank with a different implementation than requested.
func planOptsOK(opts RankOptions) error {
	if opts.Algorithm != "" && opts.Algorithm != AlgorithmFactorized {
		return fmt.Errorf("contextrank: rank plans implement the factorized algorithm, not %q", opts.Algorithm)
	}
	return nil
}

// HotPathStats reports the effectiveness of the rank hot path's pooled
// scratch arenas and per-plan document-distribution caches. The counters
// are process-global (plans come and go through caches; the scratch pool
// is shared), so the serving layer reports them once per process, not per
// shard.
type HotPathStats = core.HotPathStats

// ReadHotPathStats returns the process-wide rank hot-path counters.
func ReadHotPathStats() HotPathStats { return core.ReadHotPathStats() }

// MembershipStats counts the work of a System's concept-membership memo
// (Loader().MembershipStats()): whole evaluations run, look-ups answered
// without one, handles held, handles a DDL statement dropped.
type MembershipStats = mapping.MembershipStats

// GroupPolicy selects how member scores combine in RankGroup.
type GroupPolicy = core.GroupPolicy

// Group aggregation policies (§6 "Modeling multiple users").
const (
	// PolicyConsensus multiplies member probabilities (ideal for everyone).
	PolicyConsensus = core.PolicyConsensus
	// PolicyAverage takes the utilitarian mean.
	PolicyAverage = core.PolicyAverage
	// PolicyLeastMisery takes the minimum member score.
	PolicyLeastMisery = core.PolicyLeastMisery
)

// GroupResult is one candidate with its group and per-member scores.
type GroupResult = core.GroupResult

// RankGroup ranks the target for several users at once (§6 "Modeling
// multiple users"), combining their repository rules per user name from
// rulesFor (missing users rank with no rules, i.e. neutrally). The shared
// context must have been applied with memberships for every user — use
// Context.CertainFor/AddFor to put several individuals into one snapshot.
func (s *System) RankGroup(users []string, target string, rulesFor map[string][]Rule, policy GroupPolicy) ([]GroupResult, error) {
	targetExpr, err := dl.Parse(target)
	if err != nil {
		return nil, err
	}
	return core.GroupRank(s.loader, core.GroupRequest{
		Users:    users,
		Target:   targetExpr,
		RulesFor: rulesFor,
		Policy:   policy,
	})
}

// SaveSnapshot persists the rule repository into the database and dumps
// the whole database (event space, tables, views, indexes) as JSON to w,
// minus the applied context: every owner's context rows and the basic
// events its apply declared are left out, so the snapshot holds what
// SetContext and SetUserContext did not put there.
func (s *System) SaveSnapshot(w io.Writer) error {
	if err := s.repo.Persist(s.db); err != nil {
		return err
	}
	return s.db.Dump(w, s.loader.ContextOmit())
}

// RestoreSystem rebuilds a System from a snapshot written by SaveSnapshot:
// data, event space, views, DL vocabulary and preference rules all survive
// the round trip. The history log and the current context do not (context
// is sensed fresh, §5): the restored system has no applied context.
func RestoreSystem(r io.Reader) (*System, error) {
	db := engine.New()
	if err := db.Restore(r); err != nil {
		return nil, err
	}
	loader := mapping.NewLoader(db)
	repo, err := prefs.LoadRepository(db)
	if err != nil {
		return nil, err
	}
	sys := &System{db: db, loader: loader, repo: repo, log: history.NewLog()}
	// Seed the assertion-event counter past every restored c_<n>/r_<n>
	// name: a fresh counter would regenerate those names, failing on a
	// different probability — or, worse, silently aliasing two logically
	// independent assertions onto one event when the probability matches.
	for _, d := range db.Space().Decls() {
		var n int64
		if _, err := fmt.Sscanf(d.Name, "c_%d", &n); err != nil {
			if _, err := fmt.Sscanf(d.Name, "r_%d", &n); err != nil {
				continue
			}
		}
		if n > sys.evSeq.Load() {
			sys.evSeq.Store(n)
		}
	}
	return sys, nil
}

// Query runs a SQL statement against the embedded database (the uniform
// declarative interface of §5).
func (s *System) Query(stmt string) (*QueryResult, error) { return s.db.Query(stmt) }

// RankQuery implements the paper's §5 integration of context ranking with
// the user's own query: the SQL query supplies the candidate tuples (its
// first column must be the individual id), the preference rules supply the
// context-aware score, and the result is the candidates reordered by
// descending preferencescore — equation (3) with the query-dependent part
// being 1 for tuples the query returned and 0 otherwise.
func (s *System) RankQuery(user, sqlQuery string, opts RankOptions) ([]Result, error) {
	res, err := s.db.Query(sqlQuery)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) == 0 {
		return nil, fmt.Errorf("contextrank: query returned no columns")
	}
	candidates := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		if row[0].T != storage.TypeText {
			return nil, fmt.Errorf("contextrank: first query column must be a TEXT id, got %s", row[0].T)
		}
		candidates = append(candidates, row[0].S)
	}
	return s.RankCandidates(user, nil, candidates, opts)
}

// Exec runs a SQL statement that may not return rows.
func (s *System) Exec(stmt string) (*QueryResult, error) { return s.db.Exec(stmt) }

// MineRules mines σ estimates from the history log (§6 "Mining/learning
// preferences") and converts each estimate with at least minSupport
// supporting episodes into a scored preference rule via the caller's
// feature-to-concept translations. Mined rules are returned, not
// auto-registered; call Rules().Add to adopt them.
func (s *System) MineRules(minSupport int, ctxConcept func(feature string) string, prefExpr func(feature string) string) ([]Rule, error) {
	if ctxConcept == nil || prefExpr == nil {
		return nil, fmt.Errorf("contextrank: MineRules requires translation callbacks")
	}
	ests := s.log.MineAll(minSupport)
	var out []Rule
	for _, est := range ests {
		ctxName := ctxConcept(est.ContextFeature)
		prefText := prefExpr(est.DocFeature)
		if ctxName == "" || prefText == "" {
			continue // caller filtered this feature out
		}
		pref, err := dl.Parse(prefText)
		if err != nil {
			return nil, fmt.Errorf("contextrank: mined preference %q: %w", prefText, err)
		}
		rule := Rule{
			Name:       fmt.Sprintf("mined-%s-%s", est.ContextFeature, est.DocFeature),
			Context:    dl.Atom(ctxName),
			Preference: pref,
			Sigma:      est.Sigma,
		}
		if err := rule.Validate(); err != nil {
			return nil, err
		}
		out = append(out, rule)
	}
	return out, nil
}

// NewIRIndex returns an empty feature index for the traditional
// (query-dependent) language-model score of §2.
func NewIRIndex() *ir.Index { return ir.NewIndex() }

// QueryDependentScore computes the Ponte–Croft language-model probability
// P(q|d) with Jelinek–Mercer smoothing λ over the given index.
func QueryDependentScore(ix *ir.Index, docID string, query []string, lambda float64) (float64, error) {
	return ir.Model{Index: ix, Lambda: lambda}.Score(docID, query)
}

// CombinedScore blends the query-dependent and context scores with the §6
// smoothing weight: lambda 1 = pure query, 0 = pure context.
func CombinedScore(queryDependent, contextScore, lambda float64) (float64, error) {
	return core.SmoothedScore(queryDependent, contextScore, lambda)
}
