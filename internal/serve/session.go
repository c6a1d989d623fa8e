package serve

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

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
// A successful session write does not bump the facade epoch: it forgets the
// user's compiled rank plan, whose context half it changed, so only that
// user's cached state is invalidated. A repeat of the applied measurements
// applies nothing and forgets nothing. Every way one user's write can reach
// another user's ranking is therefore named here:
//
//   - A concept the write changes occurs inside a role-restriction filler of
//     a registered rule's context (e.g. WHEN ∃watchesWith.InKitchen): the
//     user's own membership flips the rule for users reachable over the role
//     edge. The write forgets every user's plan and moves the epoch.
//   - A concept the write changes occurs anywhere in a registered rule's
//     preference (PREFER Person AND InKitchen): membership in it is the
//     document side of every user's score. A compiled plan notices by
//     itself — its membership handle reads the concept's table — so the
//     write forgets no other plan, and every other user's next look-up keeps
//     its context half; it moves the epoch, which is reported, not asked.
//   - The apply fails: it is multi-step and may have torn the user's context,
//     so the previous one is restored, every plan forgotten and the epoch
//     moved (the same over-invalidation policy as a failing vocabulary
//     write).
//
// A drop forgets the dropped user's plan like any apply: the user stays in
// dl_domain, so a ¬, ⊤ or nominal context reads nobody else differently.
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
// The lock order is always s.mu before the facade lock, and no read takes
// s.mu: the rank path and Snapshot read the lock-free applied map.
//
// Sessions has no exported mutators: set and drop are reached only
// through Server.Apply, which journals and pokes around them.
type Sessions struct {
	f *Facade
	// plans is the server's plan cache, whose entries the writes forget.
	plans *planCache

	// mu serializes session writes, each held across the facade write lock
	// and the journal submit.
	mu sync.Mutex
	// count is the number of live sessions, moved on insert and delete under
	// s.mu, so a stats scrape does not queue behind an apply to read it.
	count atomic.Int64

	// applied maps user -> appliedContext, one immutable record for every
	// user whose session is applied. It is written only while holding s.mu
	// and the facade write lock and read lock-free (notably under the facade
	// read lock inside the rank path, where taking s.mu would deadlock
	// against set), so a reader holding the read lock sees exactly the state
	// it is ranking under, and a session read waits for nobody's apply.
	applied sync.Map
}

// appliedContext is what Sessions publishes about a user's applied session,
// replaced whole by the user's next apply.
type appliedContext struct {
	// measurements are the applied measurements; nobody writes them.
	measurements []Measurement
	// fingerprint hashes the applied measurements: the journal carries it,
	// and set compares it to tell a repeat PUT.
	fingerprint string
}

// newSessions builds an empty session manager over the facade and the plan
// cache its writes forget from.
func newSessions(f *Facade, plans *planCache) *Sessions {
	return &Sessions{f: f, plans: plans}
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
// returns the new context fingerprint, and whether ms repeats the applied
// measurements. commit is Server.Apply's journal
// submit: it runs with the fingerprint after a successful apply, while s.mu
// and the facade write lock are still held, so the journal's total order is
// exactly the apply order across session and vocabulary writes. A refused or
// failed apply commits nothing: the journal records only state that actually
// took effect. Nor does a repeat, which applies nothing: it would only rename
// the user's context events, and with them forget the plan every ranking of
// the user stands on.
func (s *Sessions) set(user string, ms []Measurement, commit func(fp string)) (fp string, repeat bool, err error) {
	if err := validateSession(user, ms); err != nil {
		return "", false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &appliedContext{measurements: ms, fingerprint: fingerprint(user, ms)}
	if cur := s.appliedContext(user); cur.fingerprint == next.fingerprint && slices.Equal(cur.measurements, ms) {
		return next.fingerprint, true, nil
	}
	if err := s.replaceLocked(user, next, func() { commit(next.fingerprint) }); err != nil {
		return "", false, err
	}
	return next.fingerprint, false, nil
}

// drop ends the user's session, retracting its rows and retiring its basic
// events. Dropping an unknown user is a no-op in memory but still commits
// (see Server.Apply on the resurrection guard; compaction treats drops of
// absent users as dead, so these cost nothing durable). See set for commit.
func (s *Sessions) drop(user string, commit func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.applied.Load(user); !ok {
		commit()
		return nil
	}
	return s.replaceLocked(user, nil, commit)
}

// replaceLocked makes next (nil: none) the user's session: inside one facade
// write section it checks the guard, applies next in place of the user's
// previous context, counts an inserted or deleted session and runs commit.
// Caller holds s.mu.
func (s *Sessions) replaceLocked(user string, next *appliedContext, commit func()) error {
	var prev *appliedContext
	if a, ok := s.applied.Load(user); ok {
		a := a.(appliedContext)
		prev = &a
	}
	// The concepts whose assertions this write adds, alters or retracts: the
	// user's previous and new vocabulary. No other is touched.
	changed := make([]string, 0, 16)
	for _, sess := range [2]*appliedContext{prev, next} {
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
		// retracted it, and forgotten every plan. The epoch reports two
		// writes, the torn one and its repair.
		_ = s.applyLocked(user, prev, changed)
		f.epoch.Add(1)
		return err
	}
	switch {
	case prev == nil && next != nil:
		s.count.Add(1)
	case prev != nil && next == nil:
		s.count.Add(-1)
	}
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

// applyLocked applies sess (nil: nothing) as the user's whole context,
// publishes it and forgets the plans the write reaches (see the type
// comment). changed names the concepts the write touches, for the cross-user
// coupling check. Caller holds s.mu and the facade write lock.
func (s *Sessions) applyLocked(user string, sess *appliedContext, changed []string) error {
	f := s.f
	filler, pref := s.couplingLocked(changed)
	if filler || pref {
		f.epoch.Add(1)
	}
	ctx := situation.Context{User: user}
	if sess != nil {
		ctx.Measurements = sess.measurements
	}
	if err := f.sys.SetUserContext(&ctx); err != nil {
		// The user's context may be half-applied; forget every plan,
		// mirroring the facade's mutator-error policy.
		f.epoch.Add(1)
		s.plans.forget()
		return err
	}
	if filler {
		s.plans.forget()
	} else {
		s.plans.forget(user)
	}
	// Published inside the write critical section: a reader holding the
	// facade read lock sees exactly the context it is ranking under.
	if sess != nil {
		s.applied.Store(user, *sess)
	} else {
		s.applied.Delete(user)
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
// fingerprint from one published record, so the pair is consistent even
// while concurrent Sets replace the session, and it waits for no apply.
func (s *Sessions) Snapshot(user string) ([]Measurement, string, bool) {
	v, ok := s.applied.Load(user)
	if !ok {
		return nil, "", false
	}
	a := v.(appliedContext)
	out := make([]Measurement, len(a.measurements))
	copy(out, a.measurements)
	return out, a.fingerprint, true
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

// Count returns the number of live sessions. It is lock-free, so it never
// queues behind an in-flight apply — Stats calls it on the scrape path.
func (s *Sessions) Count() int {
	return int(s.count.Load())
}

// couplingLocked reports how a write changing the given concepts can reach
// another user's ranking: a changed concept occurs inside a role-restriction
// filler of a registered rule's context (filler) — membership in it
// propagates across role edges — or anywhere in a rule's preference (pref),
// which is every user's document side. Caller holds f.mu.
func (s *Sessions) couplingLocked(changed []string) (filler, pref bool) {
	if len(changed) == 0 {
		return false, false
	}
	s.f.sys.Rules().Any(func(rule prefs.Rule) bool {
		_, far := reach(rule.Context, changed, nil, false)
		_, inPref := reach(rule.Preference, changed, nil, true)
		filler, pref = filler || far, pref || inPref
		return filler
	})
	return filler, pref
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
