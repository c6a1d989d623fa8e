package serve

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dl"
	"repro/internal/mapping"
	"repro/internal/prefs"
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
// each degrades to a full epoch bump, which moves the context generation too
// (every user's compiled plan resolves its contexts again):
//
//   - A concept the write changes occurs inside a role-restriction filler of
//     a registered rule (e.g. WHEN ∃watchesWith.InKitchen): the user's own
//     membership flips the rule for users reachable over the role edge.
//   - A concept the write changes occurs anywhere in a registered rule's
//     preference (PREFER Person AND InKitchen): membership in it is the
//     document side of every user's score. (A compiled plan would notice by
//     itself — its membership handle reads the concept's table — but cached
//     rank results are keyed by epoch and fingerprint alone.)
//   - A drop while a rule's context reads the closed domain (¬, ⊤, a
//     nominal): the dropped user reads as one never applied, but the first
//     apply registered them, and such a context reads that.
//   - The apply fails: it is multi-step and may have torn the user's context,
//     so the previous one is restored and every cached ranking invalidated
//     (the same over-invalidation policy as the facade's write path).
//
// A checkpoint reads no session state: the snapshot leaves every user's
// context rows and events out (contextrank.System.SaveSnapshot), and the
// journal re-applies live sessions on recovery.
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
	changed := make([]string, 0, 16)
	for _, sess := range [2]*session{prev, next} {
		if sess == nil {
			continue
		}
		for _, m := range sess.measurements {
			if !slices.Contains(changed, m.Concept) {
				changed = append(changed, m.Concept)
			}
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
		f.bumpLocked()
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
		f.bumpLocked()
	}
	ctx := situation.Context{User: user}
	if sess != nil {
		ctx.Measurements = sess.measurements
	}
	generation, err := f.sys.SetUserContext(&ctx)
	if err != nil {
		// The user's context may be half-applied; invalidate every cached
		// ranking, mirroring the facade's mutator-error policy.
		f.bumpLocked()
		return err
	}
	// Published inside the write critical section: a reader holding the
	// facade read lock sees exactly the context it is ranking under.
	if sess != nil {
		s.applied.Store(user, appliedContext{fingerprint: sess.fingerprint, generation: generation})
		return nil
	}
	s.applied.Delete(user)
	// A dropped user reads as one never applied — no fingerprint, generation
	// 0 — yet stays in dl_domain, which a ¬, ⊤ or nominal context reads: a
	// ranking or plan cached before the user's first apply must not come back.
	if s.f.sys.Rules().Any(func(rule prefs.Rule) bool { return mapping.ReadsDomain(rule.Context) }) {
		f.bumpLocked()
	}
	return nil
}

// appliedContext returns what the user's last successful apply published
// (zero for a user without a session), without taking the session mutex —
// safe to call while holding the facade lock (either side).
func (s *Sessions) appliedContext(user string) appliedContext {
	if v, ok := s.applied.Load(user); ok {
		return v.(appliedContext)
	}
	return appliedContext{}
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

// Count returns the number of live sessions. It is lock-free (reading a
// mirror of len(users) maintained under s.mu), so it never queues behind
// an in-flight apply — Stats calls it on the scrape path.
func (s *Sessions) Count() int {
	return int(s.count.Load())
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
	return s.f.sys.Rules().Any(func(rule prefs.Rule) bool {
		return mentions(rule.Context, false, changed) || mentions(rule.Preference, true, changed)
	})
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
//
// The hash is hash/fnv's New64a, inlined over the bytes so a field costs no
// allocation; WAL records carry the result, so it must not change by a bit.
func fingerprint(user string, ms []Measurement) string {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	write := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= prime64
		}
	}
	var num, prob [32]byte
	prefix := func(n int) { write(append(strconv.AppendInt(num[:0], int64(n), 10), ':')) }
	field := func(s string) {
		prefix(len(s))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	field(user)
	for _, m := range ms {
		field(m.Concept)
		field(m.Individual)
		p := strconv.AppendFloat(prob[:0], m.Prob, 'g', -1, 64)
		prefix(len(p))
		write(p)
		field(m.Exclusive)
	}
	return strconv.FormatUint(h, 16)
}
