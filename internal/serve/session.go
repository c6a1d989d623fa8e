package serve

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	contextrank "repro"
	"repro/internal/dl"
	"repro/internal/situation"
)

// Measurement is one sensed context assertion in a session update — the
// serving-layer mirror of situation.Measurement.
type Measurement = situation.Measurement

// Sessions keeps one context per situated user on top of a shared Facade.
// A session write is an owner-scoped apply (contextrank.System.SetUserContext):
// under the facade's write lock it retracts the rows and retires the basic
// events that user's previous context left, declares the new events and
// asserts the new rows — nothing of any other user's is read, re-asserted or
// renamed, so the write costs that user's measurements however many sessions
// are live, and the event space stays bounded by the live session vocabulary
// under arbitrary churn (a drop retires exactly the dropped user's events).
//
// A successful session write does not bump the facade epoch: it publishes the
// user's new context fingerprint — which keys that user's cached rankings —
// and the generation of the apply — which the user's compiled rank plan is
// valid for — so only that user's cached state is invalidated. Every way one
// user's write can reach another user's ranking is therefore named here, and
// each degrades to a full epoch bump:
//
//   - A concept the write changes occurs inside a role-restriction filler of
//     a registered rule (e.g. WHEN ∃watchesWith.InKitchen): the user's own
//     membership flips the rule for users reachable over the role edge.
//   - A concept the write changes occurs anywhere in a registered rule's
//     preference (PREFER Person AND InKitchen): membership in it is the
//     document side of every user's score. (A compiled plan would notice by
//     itself — its membership handle reads the concept's table — but cached
//     rank results are keyed by epoch and fingerprint alone.)
//   - The apply fails: it is multi-step and may have torn the user's context,
//     so the previous one is restored and every cached ranking invalidated
//     (the same over-invalidation policy as the facade's write path).
//   - SuspendAndDump retracts and re-applies every session.
//
// Two restrictions keep the rest sound:
//
//   - A session may only assert its own user (Measurement.Individual must
//     be empty or equal to the session user). Asserting other individuals
//     could change other users' rankings without invalidating their
//     cached entries — and keeps the users' rows disjoint, which the
//     owner-scoped apply requires.
//   - A session may not use a concept that holds assertions the session
//     layer did not make (a data assertion of the same membership merges
//     into the session's row and is retracted with it, and a context
//     concept named "TvProgram" would mix sessions into the catalog).
//     Context vocabulary must be dedicated concepts, as in the paper's
//     Weekend/Morning/InKitchen.
//
// The lock order is always s.mu before the facade lock, and the rank path
// never takes s.mu: it reads the lock-free applied map.
//
// Sessions has no exported mutators: set and drop are reached only
// through Server.Apply, which journals and pokes around them.
type Sessions struct {
	f *Facade

	mu    sync.Mutex
	users map[string]*session
	// count mirrors len(users) so Count is lock-free: s.mu is held across
	// the facade write lock during applies, and a stats scrape must not
	// queue behind an apply just to read the session count.
	count atomic.Int64

	// applied maps user -> appliedContext for every user whose session is
	// applied. It is written only while holding the facade write lock and
	// read lock-free (notably under the facade read lock inside the rank
	// path, where taking s.mu would deadlock against set), so a reader
	// holding the read lock sees exactly the state it is ranking under.
	applied sync.Map
}

type session struct {
	measurements []Measurement
	fingerprint  string
}

// appliedContext is what Sessions publishes about a user's applied session.
type appliedContext struct {
	// fingerprint hashes the applied measurements: two applies of the same
	// measurements rank the same, so it keys the user's cached rankings.
	fingerprint string
	// generation is the apply's own number (the epoch in the user's context
	// event names). A re-apply of identical measurements re-declares the
	// events under new names, so anything holding them — a compiled rank plan
	// — is valid for one generation, not for one fingerprint.
	generation int64
}

// newSessions builds an empty session manager over the facade.
func newSessions(f *Facade) *Sessions {
	return &Sessions{f: f, users: make(map[string]*session)}
}

// validateSession checks a session update before any lock is taken.
func validateSession(user string, measurements []Measurement) error {
	if user == "" {
		return fmt.Errorf("serve: session user must be non-empty")
	}
	exclusiveSums := make(map[string]float64)
	for _, m := range measurements {
		if m.Concept == "" {
			return fmt.Errorf("serve: measurement without a concept")
		}
		// Positive form so NaN is rejected too (NaN fails every
		// comparison, so `< 0 || > 1` would let it through into the
		// event space).
		if !(m.Prob >= 0 && m.Prob <= 1) {
			return fmt.Errorf("serve: measurement %s has probability %g outside [0,1]", m.Concept, m.Prob)
		}
		if m.Individual != "" && m.Individual != user {
			return fmt.Errorf("serve: session for %q may not assert individual %q", user, m.Individual)
		}
		if m.Exclusive != "" {
			exclusiveSums[m.Exclusive] += m.Prob
		}
	}
	for group, sum := range exclusiveSums {
		if !(sum <= 1+1e-9) {
			return fmt.Errorf("serve: exclusive group %q probabilities sum to %g > 1", group, sum)
		}
	}
	return nil
}

// set replaces the user's session context with ms (which it takes
// ownership of; empty is a valid "no context" session), applies it and
// returns the new context fingerprint. commit is Server.Apply's journal
// submit: it runs with the fingerprint after a successful apply, while s.mu
// and the facade write lock are still held, so the journal's total order is
// exactly the apply order across session and vocabulary writes. A refused or
// failed apply commits nothing: the journal records only state that actually
// took effect.
func (s *Sessions) set(user string, ms []Measurement, commit func(fp string)) (string, error) {
	if err := validateSession(user, ms); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := &session{measurements: ms, fingerprint: fingerprint(user, ms)}
	if err := s.replaceLocked(user, sess, func() { commit(sess.fingerprint) }); err != nil {
		return "", err
	}
	return sess.fingerprint, nil
}

// drop ends the user's session, retracting its rows and retiring its basic
// events. Dropping an unknown user is a no-op in memory but still commits
// (see Server.Apply on the resurrection guard; compaction treats drops of
// absent users as dead, so these cost nothing durable). See set for commit.
func (s *Sessions) drop(user string, commit func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.users[user] == nil {
		commit()
		return nil
	}
	return s.replaceLocked(user, nil, commit)
}

// replaceLocked makes next (nil: none) the user's session: inside one facade
// write section it checks the guard, applies next in place of the user's
// previous context, settles the session map and runs commit. Caller holds
// s.mu.
func (s *Sessions) replaceLocked(user string, next *session, commit func()) error {
	prev := s.users[user]
	// The concepts whose assertions this write adds, alters or retracts: the
	// user's previous and new vocabulary. No other is touched.
	changed := prev.concepts()
	for _, c := range next.concepts() {
		if !slices.Contains(changed, c) {
			changed = append(changed, c)
		}
	}
	f := s.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := s.guardLocked(changed); err != nil {
		return err
	}
	if err := s.applyLocked(user, next, changed); err != nil {
		// Best-effort restore of the previous context: the failed apply has
		// retracted it. The failed apply bumped the epoch, but a ranking
		// landing between that bump and the restore can still cache a
		// torn-context result under the new epoch — bump once more after the
		// restore so nothing cached inside the window survives.
		_ = s.applyLocked(user, prev, changed)
		f.epoch.Add(1)
		return err
	}
	if next != nil {
		s.users[user] = next
	} else {
		delete(s.users, user)
	}
	s.count.Store(int64(len(s.users)))
	commit()
	return nil
}

// concepts lists the session's context vocabulary (nil for no session).
func (sess *session) concepts() []string {
	if sess == nil {
		return nil
	}
	return (&situation.Context{Measurements: sess.measurements}).ConceptNames()
}

// guardLocked refuses a write that would touch a concept holding assertions
// the session layer did not make (see the type comment): strictly more rows
// in its table than context applies put there means foreign data; fewer is
// fine (someone deleted ours). It reads two counters per concept and runs
// before any mutation, so a refusal leaves the system untouched; it covers
// the concepts leaving the user's vocabulary as much as those entering it.
// Caller holds the facade write lock.
func (s *Sessions) guardLocked(concepts []string) error {
	for _, c := range concepts {
		if total, ours := s.f.sys.Loader().ConceptRows(c); total > ours {
			return fmt.Errorf("serve: concept %q holds %d assertions not made by the session layer; refusing to use it as session context (a context's rows cannot be told from data) — use a dedicated context concept", c, total-ours)
		}
	}
	return nil
}

// applyLocked applies sess (nil: nothing) as the user's whole context and
// publishes the result. changed names the concepts the write touches, for
// the cross-user coupling check. Caller holds s.mu and the facade write lock.
func (s *Sessions) applyLocked(user string, sess *session, changed []string) error {
	f := s.f
	if s.couplesLocked(changed) {
		f.epoch.Add(1)
	}
	ctx := situation.Context{User: user}
	if sess != nil {
		ctx.Measurements = sess.measurements
	}
	generation, err := f.sys.SetUserContext(&ctx)
	if err != nil {
		// The user's context may be half-applied; invalidate every cached
		// ranking, mirroring the facade's mutator-error policy.
		f.epoch.Add(1)
		return err
	}
	// Published inside the write critical section: a reader holding the
	// facade read lock sees exactly the context it is ranking under.
	if sess != nil {
		s.applied.Store(user, appliedContext{fingerprint: sess.fingerprint, generation: generation})
	} else {
		s.applied.Delete(user)
	}
	return nil
}

// Fingerprint returns the user's current context fingerprint, or "" when
// the user has no session.
func (s *Sessions) Fingerprint(user string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.users[user]; ok {
		return sess.fingerprint
	}
	return ""
}

// AppliedFingerprint returns the fingerprint of the user's last
// successfully applied session context, without taking the session mutex —
// safe to call while holding the facade lock (either side).
func (s *Sessions) AppliedFingerprint(user string) string {
	return s.appliedContext(user).fingerprint
}

// appliedContext returns what the user's last successful apply published
// (zero for a user without a session), lock-free like AppliedFingerprint.
func (s *Sessions) appliedContext(user string) appliedContext {
	if v, ok := s.applied.Load(user); ok {
		return v.(appliedContext)
	}
	return appliedContext{}
}

// Measurements returns a copy of the user's session measurements.
func (s *Sessions) Measurements(user string) ([]Measurement, bool) {
	ms, _, ok := s.Snapshot(user)
	return ms, ok
}

// Snapshot returns the user's measurements together with the matching
// fingerprint under a single lock hold, so the pair is consistent even
// while concurrent Sets replace the session.
func (s *Sessions) Snapshot(user string) ([]Measurement, string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.users[user]
	if !ok {
		return nil, "", false
	}
	out := make([]Measurement, len(sess.measurements))
	copy(out, sess.measurements)
	return out, sess.fingerprint, true
}

// IsSessionConcept reports whether the concept is part of the currently
// applied session-context vocabulary, i.e. holds a row some session
// asserted. The assert endpoint uses it to refuse data assertions into
// session concepts: every later write of a session using the concept would
// be refused by the guard (and an assertion that disjunction-merges into an
// existing session row would dodge the row-count guard entirely and be
// retracted with it). It does not take s.mu, so it is safe to call while
// holding the facade write lock.
func (s *Sessions) IsSessionConcept(concept string) bool {
	_, ours := s.f.sys.Loader().ConceptRows(concept)
	return ours > 0
}

// Users returns the sorted users with live sessions.
func (s *Sessions) Users() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.users))
	for u := range s.users {
		out = append(out, u)
	}
	sort.Strings(out)
	return out
}

// Count returns the number of live sessions. It is lock-free (reading a
// mirror of len(users) maintained under s.mu), so it never queues behind
// an in-flight apply — Stats calls it on the scrape path.
func (s *Sessions) Count() int {
	return int(s.count.Load())
}

// SuspendAndDump runs fn (typically a snapshot dump) on the bare system
// with every session's context *retracted*, then re-applies each live
// session — all inside one facade write critical section, so no reader ever
// observes the suspended state. Serving-layer snapshots therefore contain
// only durable state: session context is never part of a snapshot, and a
// restored server's session manager starts with clean concept tables instead
// of refusing its own vocabulary as foreign data. Session persistence is the
// journal's job (Server.AttachJournal): boot-time replay re-applies the
// journaled records through Apply, the same path live traffic takes — or,
// without a journal, context is simply re-sensed after a restart (the
// paper's §5 position). This is the one O(sessions) operation of the layer,
// paid once per checkpoint.
//
// The epoch is bumped on the way out regardless of outcome: every session's
// events were re-declared, a failed re-apply leaves that context torn, and
// conservative invalidation is the established policy for every partial
// mutation.
func (s *Sessions) SuspendAndDump(fn func(sys *contextrank.System) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.f
	f.mu.Lock()
	defer f.mu.Unlock()
	defer f.epoch.Add(1)
	if err := f.sys.SetContext(situation.New("_snapshot")); err != nil {
		return fmt.Errorf("serve: suspending session context: %w", err)
	}
	dumpErr := fn(f.sys)
	users := make([]string, 0, len(s.users))
	for u := range s.users {
		users = append(users, u)
	}
	sort.Strings(users) // deterministic event numbering
	for _, u := range users {
		sess := s.users[u]
		err := s.guardLocked(sess.concepts())
		if err == nil {
			err = s.applyLocked(u, sess, nil)
		}
		if err != nil && dumpErr == nil {
			dumpErr = fmt.Errorf("serve: re-applying session context of %q after dump: %w", u, err)
		}
	}
	return dumpErr
}

// couplesLocked reports whether a write changing the given concepts can
// change another user's ranking: a changed concept occurs inside a
// role-restriction filler of a registered rule's context — membership in it
// propagates across role edges — or anywhere in a rule's preference, which
// is every user's document side. Per-user invalidation is then insufficient.
// Caller holds f.mu.
func (s *Sessions) couplesLocked(changed []string) bool {
	if len(changed) == 0 {
		return false
	}
	for _, rule := range s.f.sys.Rules().Rules() {
		if mentions(rule.Context, false, changed) || mentions(rule.Preference, true, changed) {
			return true
		}
	}
	return false
}

// mentions reports whether one of the concepts occurs in expr inside a
// role-restriction filler — or anywhere in it, when expr itself counts as
// being inside one (inFiller).
func mentions(e *dl.Expr, inFiller bool, concepts []string) bool {
	if e == nil {
		return false
	}
	if e.Op() == dl.OpAtom {
		return inFiller && slices.Contains(concepts, e.Name())
	}
	inside := inFiller || e.Op() == dl.OpExists
	for _, a := range e.Args() {
		if mentions(a, inside, concepts) {
			return true
		}
	}
	return false
}

// fingerprint hashes a session's measurements (FNV-64a). The user is mixed
// in so identical measurement lists for different users do not collide
// into confusingly equal fingerprints in logs. Fields are length-prefixed
// for the same reason rankKey's are: measurement strings are free-form
// bytes, and bare separators would let crafted values collide two
// semantically different measurement lists into one fingerprint —
// silently disabling that user's cache invalidation.
func fingerprint(user string, ms []Measurement) string {
	h := fnv.New64a()
	field := func(s string) {
		h.Write([]byte(strconv.Itoa(len(s))))
		h.Write([]byte{':'})
		h.Write([]byte(s))
	}
	field(user)
	for _, m := range ms {
		field(m.Concept)
		field(m.Individual)
		field(strconv.FormatFloat(m.Prob, 'g', -1, 64))
		field(m.Exclusive)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}
