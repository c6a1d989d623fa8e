package serve

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	contextrank "repro"
	"repro/internal/dl"
	"repro/internal/mapping"
	"repro/internal/situation"
)

// Measurement is one sensed context assertion in a session update — the
// serving-layer mirror of situation.Measurement.
type Measurement = situation.Measurement

// Sessions manages one context per situated user on top of a shared
// Facade. Because a System holds a single situation snapshot (dynamic
// context is acquired anew at each query, §5), every session update merges
// all live sessions into one snapshot and applies it atomically under the
// facade's write lock.
//
// Each merged apply also *retires* the previous snapshot's basic events
// from the event space (situation.Apply tracks per loader what it declared
// last time): a Set replaces the updated user's events, and a Drop retires
// the dropped user's events with the same re-apply — dropping the last
// session retires every session-declared event. The event space therefore
// stays bounded by the live session vocabulary under arbitrary churn
// instead of accumulating one epoch of ctx_* declarations per update.
//
// A successful session update normally does not bump the facade epoch: it
// changes the updated user's context fingerprint instead, so only that
// user's cached rankings are invalidated. One exception and two
// restrictions keep that sound. The exception: when an updated concept
// appears inside a role-restriction filler of a registered rule (e.g.
// WHEN ∃watchesWith.InKitchen), the user's own membership can change
// *other* users' rankings through role edges, so the update degrades to a
// full epoch bump. The restrictions:
//
//   - A session may only assert its own user (Measurement.Individual must
//     be empty or equal to the session user). Asserting other individuals
//     could change other users' rankings without invalidating their
//     cached entries.
//   - A session may not use a concept that already holds data assertions
//     (applying a context clears and re-asserts its concepts, which would
//     destroy the data — e.g. a session context named "TvProgram" would
//     wipe the program catalog). Context vocabulary must be dedicated
//     concepts, as in the paper's Weekend/Morning/InKitchen.
//
// A *failed* apply does bump the epoch: the snapshot application is
// multi-step and may have partially destroyed the previous context, so
// every cached ranking is conservatively invalidated (the same
// over-invalidation policy as the facade's write path).
//
// Sessions has no exported mutators: set and drop are reached only
// through Server.Apply, which journals and pokes around them.
type Sessions struct {
	f *Facade

	mu    sync.Mutex
	users map[string]*session
	// count mirrors len(users) so Count is lock-free: s.mu is held across
	// the facade write lock during merged applies, and a stats scrape must
	// not queue behind an apply just to read the session count.
	count atomic.Int64
	// appliedRows counts, per session-context concept, how many assertion
	// rows the last successful apply put in its table. The guard in
	// applyMergedLocked compares the table's current row count against
	// this: more rows than we asserted means someone injected data into a
	// context concept (e.g. via /v1/assert), and applying — which clears
	// the concept — would destroy it.
	appliedRows map[string]int

	// ctxEpoch counts merged context applies (attempted, not just
	// successful: a failed apply may already have retired the previous
	// snapshot's basic events). Every apply invalidates all compiled rank
	// plans — their context events are retired and re-declared under fresh
	// names even for users whose own session did not change — without
	// bumping the facade epoch, so the serve plan cache keys plans by this
	// counter alongside the epoch. Bumped only while holding the facade
	// write lock; reading it under the facade read lock is therefore
	// stable for the duration of the lock hold.
	ctxEpoch atomic.Int64

	// applied maps user -> fingerprint of the last successfully applied
	// snapshot. It is written only while holding the facade write lock
	// and read lock-free (notably under the facade read lock inside
	// Server.Rank, where taking s.mu would deadlock against Set).
	applied sync.Map
	// appliedConcepts is the applied session-context vocabulary
	// (concept -> true), maintained under the same discipline as
	// applied. IsSessionConcept reads it lock-free, which lets the
	// assert endpoint check it *inside* the facade write critical
	// section — checking before taking the lock would leave a TOCTOU
	// window in which a session could claim the concept first.
	appliedConcepts sync.Map
}

type session struct {
	measurements []Measurement
	fingerprint  string
}

// newSessions builds an empty session manager over the facade.
func newSessions(f *Facade) *Sessions {
	return &Sessions{
		f:           f,
		users:       make(map[string]*session),
		appliedRows: make(map[string]int),
	}
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
// ownership of; empty is a valid "no context" session), applies the
// merged snapshot and returns the new context fingerprint. commit is
// Server.Apply's journal submit: it runs with the fingerprint after a
// successful apply, while s.mu and the facade write lock are still held,
// so the journal's total order is exactly the apply order across session
// and vocabulary writes. A failed apply commits nothing: the journal
// records only state that actually took effect.
func (s *Sessions) set(user string, ms []Measurement, commit func(fp string)) (string, error) {
	if err := validateSession(user, ms); err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	prev, had := s.users[user]
	// The concepts whose assertions this update actually changes: the
	// user's previous and new vocabulary. Other sessions' measurements
	// are re-applied with identical probabilities, so they change
	// nothing observable.
	changed := make(map[string]bool)
	for _, m := range ms {
		changed[m.Concept] = true
	}
	if had {
		for _, m := range prev.measurements {
			changed[m.Concept] = true
		}
	}
	sess := &session{measurements: ms, fingerprint: fingerprint(user, ms)}
	s.users[user] = sess
	// Refresh the lock-free count mirror after the map settles (including
	// the rollback below); runs while s.mu is still held.
	defer func() { s.count.Store(int64(len(s.users))) }()
	f := s.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := s.applyMergedFacadeLocked(changed); err != nil {
		// Roll back the bookkeeping, then best-effort re-apply the
		// previous state: a failed apply may have cleared other users'
		// context assertions before erroring, and without the restore
		// every user would rank against the torn context until the next
		// successful session operation. The failed apply bumped the
		// epoch, but a ranking landing between that bump and the restore
		// can still cache a torn-context result under the new epoch —
		// bump once more after the restore so nothing cached inside the
		// window survives.
		if had {
			s.users[user] = prev
		} else {
			delete(s.users, user)
		}
		_ = s.applyMergedFacadeLocked(changed)
		f.epoch.Add(1)
		return "", err
	}
	commit(sess.fingerprint)
	return sess.fingerprint, nil
}

// drop ends the user's session and re-applies the remaining sessions'
// merged context, which retires the dropped user's basic events from the
// event space along with the rest of the previous snapshot's. Dropping an
// unknown user is a no-op in memory but still commits (see Server.Apply
// on the resurrection guard; compaction treats drops of absent users as
// dead, so these cost nothing durable). See set for commit.
func (s *Sessions) drop(user string, commit func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.users[user]
	if !ok {
		commit()
		return nil
	}
	changed := make(map[string]bool)
	for _, m := range sess.measurements {
		changed[m.Concept] = true
	}
	delete(s.users, user)
	defer func() { s.count.Store(int64(len(s.users))) }() // before the s.mu unlock
	f := s.f
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := s.applyMergedFacadeLocked(changed); err != nil {
		// Same restore-and-bump policy as set: the drop did not take
		// effect, and anything cached during the torn window dies.
		s.users[user] = sess
		_ = s.applyMergedFacadeLocked(changed)
		f.epoch.Add(1)
		return err
	}
	commit()
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
	if v, ok := s.applied.Load(user); ok {
		return v.(string)
	}
	return ""
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
// applied session-context vocabulary. The assert endpoint uses it to
// refuse data assertions into session concepts: the next context apply
// clears those concepts, so such an assertion would be silently destroyed
// (and, when it disjunction-merges into an existing session row, would
// dodge the row-count guard entirely). Lock-free, so it is safe — and
// race-free — to call while holding the facade write lock.
func (s *Sessions) IsSessionConcept(concept string) bool {
	_, ok := s.appliedConcepts.Load(concept)
	return ok
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
// an in-flight merged apply — Stats calls it on the scrape path.
func (s *Sessions) Count() int {
	return int(s.count.Load())
}

// ContextEpoch returns the merged-apply counter. Two reads under the same
// facade read lock return the same value; a compiled rank plan is valid
// exactly while (facade epoch, context epoch) both match its compile-time
// values.
func (s *Sessions) ContextEpoch() int64 { return s.ctxEpoch.Load() }

// applyMergedFacadeLocked builds one situation snapshot from every live
// session and applies it. The apply retracts the previous merged snapshot
// and retires its basic events (see situation.Context.Apply), so sessions
// that shrank or dropped since the last apply leave nothing behind in the
// event space. changed names the concepts whose assertions this operation
// adds, alters or retracts (the updated user's old and new vocabulary) —
// used to decide whether the update couples to other users through role
// edges. Callers hold s.mu AND the facade write lock (set and drop take
// the facade lock directly so the journal commit lands in the same
// critical section as the apply; SuspendAndDump runs it inside the same
// critical section as the retraction and the dump). The lock order
// is always s.mu before facade.mu, and the rank path never takes s.mu
// while holding the facade lock (it uses AppliedFingerprint).
func (s *Sessions) applyMergedFacadeLocked(changed map[string]bool) error {
	// The apply below retires the previous snapshot's basic events, so any
	// plan compiled before this point is dead even if the apply fails
	// half-way — count the attempt, not the success.
	s.ctxEpoch.Add(1)
	merged := situation.New("_sessions")
	users := make([]string, 0, len(s.users))
	for u := range s.users {
		users = append(users, u)
	}
	sort.Strings(users) // deterministic measurement order
	// Count the distinct (concept, individual) pairs the apply will put
	// in each concept table: AssertConcept merges repeated assertions of
	// one individual into a single row, so counting raw measurements
	// would overstate our rows and let foreign data slip past the guard.
	conceptRows := make(map[string]int)
	type assertion struct{ concept, individual string }
	seen := make(map[assertion]bool)
	for _, u := range users {
		for _, m := range s.users[u].measurements {
			if m.Individual == "" {
				m.Individual = u
			}
			if a := (assertion{m.Concept, m.Individual}); !seen[a] {
				seen[a] = true
				conceptRows[m.Concept]++
			}
			if m.Exclusive != "" {
				// Namespace exclusive groups per user so "location" for
				// peter and "location" for maria stay independent groups.
				m.Exclusive = u + "\x1f" + m.Exclusive
			}
			merged.Measurements = append(merged.Measurements, m)
		}
	}

	f := s.f
	// Refuse concepts holding assertions beyond what our own last apply
	// put there (see the type comment). Checked before any mutation, so
	// rejection leaves the system untouched. Strictly more rows than we
	// asserted means foreign data; fewer is fine (a failed earlier apply
	// may have cleared our rows before erroring). The check covers the
	// union of the new snapshot's concepts and the previous one's:
	// applying clears both sets (situation.Apply retracts the previous
	// context), so a concept merely *leaving* the snapshot would destroy
	// foreign rows just as surely as one staying in it.
	toCheck := make(map[string]bool, len(conceptRows)+len(s.appliedRows))
	for c := range conceptRows {
		toCheck[c] = true
	}
	for c := range s.appliedRows {
		toCheck[c] = true
	}
	for c := range toCheck {
		if !f.sys.Loader().HasConcept(c) {
			continue
		}
		res, err := f.sys.Query("SELECT id FROM " + mapping.ConceptTable(c))
		if err != nil {
			return err
		}
		if n := len(res.Rows); n > s.appliedRows[c] {
			return fmt.Errorf("serve: concept %q holds %d assertions not made by the session layer; refusing to use it as session context (applying would clear them) — use a dedicated context concept", c, n-s.appliedRows[c])
		}
	}
	if s.rolesCoupleLocked(changed) {
		// A concept this update changes appears inside a role-restriction
		// filler of a registered rule (e.g. WHEN ∃watchesWith.InKitchen):
		// asserting the user's own membership can then flip the rule for
		// *other* users reachable over the role edge, whose fingerprints
		// do not change. Degrade to a full epoch bump in exactly this
		// configuration; role-free vocabularies keep the per-user
		// fast path.
		f.epoch.Add(1)
	}
	if err := f.sys.SetContext(merged); err != nil {
		// The snapshot may be half-applied; invalidate every cached
		// ranking, mirroring the facade's mutator-error policy.
		f.epoch.Add(1)
		return err
	}
	// Concepts absent from this snapshot were cleared by the apply.
	s.appliedRows = conceptRows
	for c := range conceptRows {
		s.appliedConcepts.Store(c, true)
	}
	s.appliedConcepts.Range(func(k, _ any) bool {
		if _, ok := conceptRows[k.(string)]; !ok {
			s.appliedConcepts.Delete(k)
		}
		return true
	})
	// Publish the applied fingerprints inside the write critical section:
	// a reader holding the facade read lock sees exactly the fingerprints
	// of the snapshot it is ranking under. Updated in place — a
	// Clear+rebuild would give lock-free AppliedFingerprint readers a
	// window of "" for users with live sessions.
	for u, sess := range s.users {
		s.applied.Store(u, sess.fingerprint)
	}
	s.applied.Range(func(k, _ any) bool {
		if _, ok := s.users[k.(string)]; !ok {
			s.applied.Delete(k)
		}
		return true
	})
	return nil
}

// SuspendAndDump runs fn (typically a snapshot dump) on the bare system
// with the merged session context *retracted*, then re-applies the merged
// context — all inside one facade write critical section, so no reader
// ever observes the suspended state. Serving-layer snapshots therefore
// contain only durable state: session context is never part of a
// snapshot, and a restored server's session manager starts with clean
// concept tables instead of refusing its own vocabulary as foreign data.
// Session persistence is the journal's job (Server.AttachJournal):
// boot-time replay re-applies the journaled records through Apply, the
// same path live traffic takes — or, without a journal, context is
// simply re-sensed after a restart (the paper's §5 position).
//
// The epoch is bumped on the way out regardless of outcome: a failed
// re-apply leaves the context torn, and conservative invalidation is the
// established policy for every partial mutation.
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
	// The retraction cleared every session-asserted row; the guard in the
	// re-apply below must not count them against the new snapshot.
	s.appliedRows = make(map[string]int)
	dumpErr := fn(f.sys)
	if err := s.applyMergedFacadeLocked(nil); err != nil && dumpErr == nil {
		dumpErr = fmt.Errorf("serve: re-applying session context after dump: %w", err)
	}
	return dumpErr
}

// rolesCoupleLocked reports whether any changed concept occurs inside a
// role-restriction filler of a registered rule's context or preference.
// Membership in such a concept propagates across role edges, so the
// per-user fingerprint invalidation is insufficient. Caller holds f.mu.
func (s *Sessions) rolesCoupleLocked(changed map[string]bool) bool {
	if len(changed) == 0 {
		return false
	}
	fillers := make(map[string]bool)
	for _, rule := range s.f.sys.Rules().Rules() {
		roleFillerConcepts(rule.Context, false, fillers)
		roleFillerConcepts(rule.Preference, false, fillers)
	}
	for c := range changed {
		if fillers[c] {
			return true
		}
	}
	return false
}

// roleFillerConcepts collects the atomic concepts occurring anywhere
// inside a role-restriction filler of expr.
func roleFillerConcepts(e *dl.Expr, inFiller bool, out map[string]bool) {
	if e == nil {
		return
	}
	if e.Op() == dl.OpAtom {
		if inFiller {
			out[e.Name()] = true
		}
		return
	}
	inside := inFiller || e.Op() == dl.OpExists
	for _, a := range e.Args() {
		roleFillerConcepts(a, inside, out)
	}
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
