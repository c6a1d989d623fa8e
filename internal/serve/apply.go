package serve

import (
	"errors"
	"fmt"
	"slices"
	"time"

	contextrank "repro"
	"repro/internal/dl"
	"repro/internal/mapping"
	"repro/internal/serve/journal"
	"repro/internal/sql"
)

// ErrUnknownOp marks a record whose op this build does not know (a newer
// format revision). Recovery preserves such records verbatim.
var ErrUnknownOp = errors.New("serve: unknown journal op")

// opNames label a record's op in error text.
var opNames = [...]string{
	journal.OpSet:         "session apply",
	journal.OpDrop:        "session drop",
	journal.OpDeclare:     "declare",
	journal.OpAssert:      "assert",
	journal.OpAddRules:    "add rules",
	journal.OpRemoveRule:  "rule removal",
	journal.OpExec:        "exec",
	journal.OpSubscribe:   "subscribe",
	journal.OpUnsubscribe: "unsubscribe",
}

// Applied is what applying one record produced; which fields are
// meaningful depends on the record's op.
type Applied struct {
	Epoch       int64                    // vocabulary ops: the epoch the write produced
	Fingerprint string                   // OpSet: the new context fingerprint
	Added       []string                 // OpAddRules: names of the rules registered
	Result      *contextrank.QueryResult // OpExec: the statement's result set
	Sub         SubscriptionInfo         // OpSubscribe: the registration
	Found       bool                     // OpUnsubscribe: whether the id existed
}

// Apply is the server's one mutation entry: the journal record is the
// command. Live traffic (the typed Mutators build records) and boot
// replay both feed it, so they cannot diverge. For every op it gates on
// degraded mode, applies inside the op's critical section, submits
// exactly the applied record to the WAL inside that same section (journal
// order = apply order, which CheckpointDump's sequence cut depends on),
// waits for the group-commit fsync outside it (concurrent applies share
// one sync), feeds a journal failure to the disk-health domain and pokes
// the subscription evaluator.
//
// What is journaled: Declare/Assert/AddRules apply item by item and
// journal exactly the applied prefix — on a mid-list error the earlier
// items stay applied and durable, the failed item is neither, and an
// empty prefix journals nothing, so replay never re-fails.
// RemoveRule/Exec journal on success only. A Set is stamped with the
// fingerprint its apply produced; one repeating the applied measurements
// applies and journals nothing (see Sessions.set). A Drop of an absent user
// and an Unsubscribe of an unknown id are still journaled: an earlier attempt
// may have applied and then failed its journal write, and without the
// record the WAL would hold a live Set/Subscribe whose replay resurrects
// state the client was told is gone.
//
// A vocabulary write's apply-to-ack wall time is recorded for
// VocabWrites. A record read back from a journal already carries its
// sequence number and acknowledges no client, so boot replay is not timed.
func (s *Server) Apply(rec journal.Record) (Applied, error) {
	if rec.Op.IsVocab() && rec.Seq == 0 {
		defer s.vocab.since(time.Now())
	}
	if err := s.health.checkWritable(); err != nil {
		return Applied{}, err
	}
	// A replayed record was preserved because it had not applied; the
	// copy journaled here has.
	rec.Preserved = false
	var (
		out    Applied
		err    error
		wait   func() error
		repeat bool
	)
	// submit journals rec as it stands; each op calls it inside its own
	// critical section once rec holds exactly what was applied.
	submit := func() {
		if j := s.wal.Load(); j != nil {
			rec.Epoch = s.facade.Epoch()
			wait = j.Submit(rec)
		}
	}
	// vocab runs a vocabulary write that may reach any user's context, so it
	// forgets every plan.
	vocab := func(op func(sys *contextrank.System) error) {
		out.Epoch, err = s.facade.WithWriteEpoch(func(sys *contextrank.System) error {
			s.plans.forget()
			return op(sys)
		})
	}
	switch rec.Op {
	case journal.OpSet:
		out.Fingerprint, repeat, err = s.sessions.set(rec.User, measurementsFromWire(rec.Measurements), func(fp string) {
			rec.Fingerprint = fp
			submit()
		})
		// A repeat of the applied measurements applied nothing: it journals
		// nothing and pokes nothing, and its ack waits only until the PUT
		// it repeats is durable.
		if j := s.wal.Load(); repeat && j != nil {
			wait = j.Sync
		}
	case journal.OpDrop:
		err = s.sessions.drop(rec.User, submit)
	case journal.OpDeclare:
		vocab(func(sys *contextrank.System) error {
			opErr := declarePrefix(sys, &rec)
			if len(rec.Concepts)+len(rec.Roles)+len(rec.Subs) > 0 {
				submit()
			}
			return opErr
		})
	case journal.OpAssert:
		// The one vocabulary write that forgets only the plans it reaches.
		out.Epoch, err = s.facade.WithWriteEpoch(func(sys *contextrank.System) error {
			s.forgetAsserted(sys, &rec)
			opErr := s.assertPrefix(sys, &rec)
			if len(rec.ConceptAsserts)+len(rec.RoleAsserts) > 0 {
				submit()
			}
			return opErr
		})
	case journal.OpAddRules:
		vocab(func(sys *contextrank.System) error {
			opErr := addRulesPrefix(sys, &rec, &out)
			if len(rec.Rules) > 0 {
				submit()
			}
			return opErr
		})
	case journal.OpRemoveRule:
		vocab(func(sys *contextrank.System) error {
			if opErr := sys.Rules().Remove(rec.Rule); opErr != nil {
				return opErr
			}
			submit()
			return nil
		})
	case journal.OpExec:
		vocab(func(sys *contextrank.System) error {
			res, opErr := sys.Exec(rec.Stmt)
			out.Result = res
			if opErr != nil {
				return opErr
			}
			submit()
			return nil
		})
	case journal.OpSubscribe:
		out.Sub, err = s.subscribe(&rec, submit)
	case journal.OpUnsubscribe:
		out.Found = s.unsubscribe(&rec, submit)
	default:
		return Applied{}, fmt.Errorf("%w %d", ErrUnknownOp, rec.Op)
	}

	// The poke/wait order is observable and differs by op class; both are
	// kept as they were. Vocabulary writes poke first (even a partial
	// apply moved the epoch), so the evaluator re-ranks while this call
	// waits on the disk. Session and subscription ops wait first: on one
	// processor a poke ahead of the wait lets the evaluator take the CPU
	// before the acknowledgement goes out.
	var jerr error
	pokeFirst := rec.Op.IsVocab()
	if pokeFirst {
		s.pokeSubs()
	}
	if wait != nil {
		jerr = wait()
	}
	if !pokeFirst && !repeat {
		s.pokeSubs()
	}
	// An apply error wins: the client saw no acknowledgement, so the
	// durability of a partial prefix is best-effort.
	if err != nil || jerr == nil {
		return out, err
	}
	// Applied in memory but not durable. The caller must not treat the
	// write as acknowledged (a retry re-applies idempotently); with
	// degraded mode armed the record joins the unjournaled tail so
	// ProbeDisk re-journals it when the disk recovers — the WAL must end
	// up agreeing with the in-memory state it missed. A repeat applied
	// nothing to re-journal — the PUT it repeats, if it is not durable
	// either, was noted by its own Apply — but its failed sync still
	// engages degraded mode, whose probe resets the journal.
	noted := &rec
	if repeat {
		noted = nil
	}
	s.health.noteJournalError(noted, jerr)
	return out, fmt.Errorf("serve: %s applied but not journaled: %w", opNames[rec.Op], notJournaled{jerr})
}

// declarePrefix applies a declare record's items in order, trimming rec
// to the prefix that took effect. Caller holds the facade write lock.
func declarePrefix(sys *contextrank.System, rec *journal.Record) error {
	concepts, roles, subs := rec.Concepts, rec.Roles, rec.Subs
	rec.Concepts, rec.Roles, rec.Subs = nil, nil, nil
	for i, c := range concepts {
		if err := sys.DeclareConcept(c); err != nil {
			return err
		}
		rec.Concepts = concepts[:i+1]
	}
	for i, r := range roles {
		if err := sys.DeclareRole(r); err != nil {
			return err
		}
		rec.Roles = roles[:i+1]
	}
	for i, sc := range subs {
		if err := sys.SubConcept(sc.Sub, sc.Super); err != nil {
			return err
		}
		rec.Subs = subs[:i+1]
	}
	return nil
}

// forgetAsserted forgets the plans whose context half an assert record can
// reach, before any of it applies. A context's membership reads only the
// tables of the concepts and roles it names, and dl_domain when it holds ¬, ⊤
// or a nominal — which an assert grows by every individual it names first.
// Outside every role filler, such a table decides only the membership of the
// individual a row names (a concept's id, a role's source), so the plans of
// the individuals the record names are forgotten; inside a filler it decides
// that of anyone with an edge to them, so every plan is. Caller holds the
// facade write lock.
func (s *Server) forgetAsserted(sys *contextrank.System, rec *journal.Record) {
	var concepts, roles, named []string
	for _, a := range rec.ConceptAsserts {
		concepts, named = append(concepts, a.Concept), append(named, a.ID)
	}
	for _, a := range rec.RoleAsserts {
		roles, named = append(roles, a.Role), append(named, a.Src, a.Dst)
	}
	var near, far bool
	sys.Rules().Any(func(rule contextrank.Rule) bool {
		n, f := reach(rule.Context, concepts, roles, false)
		near, far = near || n || mapping.ReadsDomain(rule.Context), far || f
		return far
	})
	switch {
	case far:
		s.plans.forget()
	case near && named != nil:
		s.plans.forget(named...)
	}
}

// reach reports whether one of the concepts or roles occurs in e outside
// every role-restriction filler (near) or inside one (far); e itself counts
// as inside one when inFiller is set.
func reach(e *dl.Expr, concepts, roles []string, inFiller bool) (near, far bool) {
	named := e.Op() == dl.OpAtom && slices.Contains(concepts, e.Name()) ||
		e.Op() == dl.OpExists && slices.Contains(roles, e.Name())
	near, far = named && !inFiller, named && inFiller
	for _, a := range e.Args() {
		n, f := reach(a, concepts, roles, inFiller || e.Op() == dl.OpExists)
		near, far = near || n, far || f
	}
	return near, far
}

// assertPrefix is declarePrefix for an assert record. Concepts that are
// currently session-context vocabulary are refused: the next context
// apply would clear the assertion. The check runs here, inside the write
// critical section where session applies also hold the lock, so there is
// no TOCTOU window in which a session could claim the concept first.
func (s *Server) assertPrefix(sys *contextrank.System, rec *journal.Record) error {
	concepts, roles := rec.ConceptAsserts, rec.RoleAsserts
	rec.ConceptAsserts, rec.RoleAsserts = nil, nil
	for i, a := range concepts {
		if s.sessions.IsSessionConcept(a.Concept) {
			return fmt.Errorf(
				"serve: concept %q is session-context vocabulary; the next context apply would clear the assertion — manage it via /v1/sessions instead", a.Concept)
		}
		if err := sys.AssertConcept(a.Concept, a.ID, a.Prob); err != nil {
			return err
		}
		rec.ConceptAsserts = concepts[:i+1]
	}
	for i, a := range roles {
		if err := sys.AssertRole(a.Role, a.Src, a.Dst, a.Prob); err != nil {
			return err
		}
		rec.RoleAsserts = roles[:i+1]
	}
	return nil
}

// addRulesPrefix is declarePrefix for an add-rules record; the names of
// the rules registered land in out.Added.
func addRulesPrefix(sys *contextrank.System, rec *journal.Record, out *Applied) error {
	texts := rec.Rules
	rec.Rules = nil
	for i, text := range texts {
		rule, err := sys.AddRule(text)
		if err != nil {
			return err
		}
		out.Added = append(out.Added, rule.Name)
		rec.Rules = texts[:i+1]
	}
	return nil
}

// The typed mutators below are Backend's write half: record builders over
// Apply. Backend stays typed (rather than exposing Apply) because
// instrumentation wraps these methods by name.

// Declare registers concepts, roles and subconcept axioms in one epoch.
func (s *Server) Declare(concepts, roles []string, subs []SubConceptDecl) (int64, error) {
	out, err := s.Apply(journal.Record{Op: journal.OpDeclare, Concepts: concepts, Roles: roles, Subs: subs})
	return out.Epoch, err
}

// Assert adds concept and role assertions in one epoch.
func (s *Server) Assert(concepts []ConceptAssertion, roles []RoleAssertion) (int64, error) {
	out, err := s.Apply(journal.Record{Op: journal.OpAssert, ConceptAsserts: concepts, RoleAsserts: roles})
	return out.Epoch, err
}

// AddRules parses and registers rules, returning the added names. On
// error the names added before the failure stay registered.
func (s *Server) AddRules(texts []string) ([]string, int64, error) {
	out, err := s.Apply(journal.Record{Op: journal.OpAddRules, Rules: texts})
	return out.Added, out.Epoch, err
}

// RemoveRule deletes a rule by name.
func (s *Server) RemoveRule(name string) (int64, error) {
	out, err := s.Apply(journal.Record{Op: journal.OpRemoveRule, Rule: name})
	return out.Epoch, err
}

// Exec runs a mutating SQL statement, returning the new epoch. A statement
// outside the SQL dialect is refused before the backend sees it: it moves no
// epoch and journals nothing.
func (s *Server) Exec(stmt string) (*contextrank.QueryResult, int64, error) {
	if _, err := sql.Parse(stmt); err != nil {
		return nil, 0, err
	}
	out, err := s.Apply(journal.Record{Op: journal.OpExec, Stmt: stmt})
	return out.Result, out.Epoch, err
}

// SetSession replaces the user's session context and returns its new
// fingerprint. An empty measurement list is a valid "no context" session.
func (s *Server) SetSession(user string, ms []Measurement) (string, error) {
	wire := make([]journal.Measurement, len(ms))
	for i, x := range ms {
		wire[i] = journal.Measurement(x)
	}
	out, err := s.Apply(journal.Record{Op: journal.OpSet, User: user, Measurements: wire})
	return out.Fingerprint, err
}

// DropSession ends the user's session.
func (s *Server) DropSession(user string) error {
	_, err := s.Apply(journal.Record{Op: journal.OpDrop, User: user})
	return err
}

// Subscribe registers (or, on an existing id, replaces) a standing rank
// subscription; an empty id mints one. A subscription that returns
// without error survives a crash, and its first evaluation is kicked off
// immediately, so an SSE attach right after the create normally finds its
// snapshot already queued.
func (s *Server) Subscribe(id string, spec SubscriptionSpec) (SubscriptionInfo, error) {
	wire := &journal.SubSpec{Target: spec.Target, Candidates: spec.Candidates, TopK: spec.TopK, Limit: spec.Limit}
	if spec.Threshold != 0 {
		wire.Threshold = &spec.Threshold
	}
	out, err := s.Apply(journal.Record{Op: journal.OpSubscribe, SubID: id, User: spec.User, Subscription: wire})
	return out.Sub, err
}

// Unsubscribe removes a subscription, ending its event stream, and
// reports whether it existed.
func (s *Server) Unsubscribe(id string) (bool, error) {
	out, err := s.Apply(journal.Record{Op: journal.OpUnsubscribe, SubID: id})
	return out.Found, err
}

// measurementsFromWire converts a Set record's payload to the engine's
// measurement type (the wire type only adds stable JSON tags).
func measurementsFromWire(wire []journal.Measurement) []Measurement {
	ms := make([]Measurement, len(wire))
	for i, x := range wire {
		ms[i] = Measurement(x)
	}
	return ms
}
