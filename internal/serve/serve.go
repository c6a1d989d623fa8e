// Package serve is the concurrent serving layer over a contextrank.System:
// the piece that turns the single-process reproduction into the always-on,
// many-user service the paper envisions for ambient systems (§1 — context
// changes continuously, queries arrive continuously).
//
// It is built from three parts:
//
//   - Facade wraps a System in a reader/writer locking discipline. Every
//     individual System component is internally synchronized (see the
//     locking-contract note on contextrank.System), but a multi-step
//     mutation such as SetContext (clear concepts, declare events, assert
//     memberships) is not atomic with respect to a concurrent Rank. The
//     facade makes it atomic: rankers and queries take the read lock,
//     writes take the write lock and bump a monotonic epoch. It is lock +
//     epoch + read helpers only; every mutation of a live server goes
//     through Server.Apply.
//
//   - Sessions keeps one context per user and applies each update as an
//     owner-scoped apply that replaces that user's rows and basic events
//     and nobody else's, so many situated users share one System at a
//     cost per update that does not grow with their number. Each session
//     carries a fingerprint of its measurements which keys that user's
//     cache entries. An update retires the events the user's previous one
//     declared, so session churn (updates and drops) cannot grow the
//     event space past the live vocabulary.
//
//   - Server adds an LRU rank-result cache, a per-user compiled-plan
//     cache and hit/latency statistics. What a served ranking stands on —
//     and so what each kind of write invalidates — is one table in
//     DESIGN.md §3.
//
// Every mutation — context apply, vocabulary write, subscription — is a
// journal.Record fed to Server.Apply (apply.go), the one place that
// applies, journals and pokes the subscription evaluator; the typed
// Backend mutators are record builders over it.
//
// Handler exposes the whole thing over HTTP/JSON through the Backend
// interface (cmd/carserved is the daemon around it). The shard subpackage
// scales the layer horizontally: a shard.Coordinator owns N Servers,
// routes per-user records by consistent hash and broadcasts vocabulary
// records, behind the same Backend interface. The journal subpackage makes
// state crash-durable: with a WAL attached (AttachJournal), every
// acknowledged mutation is fsynced before the acknowledgement and boot
// replays the records through the same Apply. See DESIGN.md §3/§3.5/§3.6
// for the architecture discussion.
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	contextrank "repro"
	"repro/internal/sql"
)

// Facade serializes access to a contextrank.System: read operations
// (ranking, queries) run concurrently under a shared lock, writes
// (schema, assertions, rules, context, DML) run exclusively and advance
// the epoch. It is the lock, the epoch and the read helpers; a live
// server is mutated through Server.Apply, which takes the write side via
// WithWriteEpoch.
//
// The epoch is bumped even when a write returns an error, because several
// System mutators apply partially before failing (e.g. AddRule
// auto-declares context concepts before validating the preference
// vocabulary). Epoch over-invalidation is harmless — it can never serve a
// stale ranking.
type Facade struct {
	mu    sync.RWMutex
	sys   *contextrank.System
	epoch atomic.Int64
}

// NewFacade wraps the system. The caller must stop touching sys directly;
// all access should flow through the facade (or WithRead/WithWriteEpoch).
func NewFacade(sys *contextrank.System) *Facade {
	return &Facade{sys: sys}
}

// Epoch returns the current mutation epoch. It increases monotonically;
// two Rank calls observing the same epoch saw the same data and rules.
func (f *Facade) Epoch() int64 { return f.epoch.Load() }

// WithRead runs fn under the shared lock. fn must not mutate the system.
func (f *Facade) WithRead(fn func(sys *contextrank.System) error) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return fn(f.sys)
}

// WithWriteEpoch runs fn under the exclusive lock and bumps the epoch,
// returning the epoch the mutation produced, captured inside the critical
// section — reading Epoch() after the lock is released could observe a later
// concurrent mutation's epoch. Server.Apply is its caller; used directly
// (tests, diagnostics) what fn changes is not journaled, not gated on
// degraded mode and does not wake the subscription evaluator.
func (f *Facade) WithWriteEpoch(fn func(sys *contextrank.System) error) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	err := fn(f.sys)
	return f.epoch.Add(1), err
}

// --- Read operations -------------------------------------------------------

// Query runs a SQL query under the read lock. It accepts only SELECT
// statements: the engine executes statements before checking whether they
// produced rows, so DML smuggled through a shared-lock path would mutate
// state under concurrent rankers and dodge the epoch bump. Anything that
// writes must go through the server's Exec.
func (f *Facade) Query(stmt string) (*contextrank.QueryResult, error) {
	if err := ensureSelect(stmt); err != nil {
		return nil, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sys.Query(stmt)
}

// ensureSelect rejects statements that are not SELECTs, classifying with
// the engine's own parser so acceptance tracks its grammar exactly.
func ensureSelect(stmt string) error {
	parsed, err := sql.Parse(stmt)
	if err != nil {
		return err
	}
	if _, ok := parsed.(*sql.SelectStmt); !ok {
		return fmt.Errorf("serve: only SELECT is allowed on the read path (got %T); use Exec for writes", parsed)
	}
	return nil
}

// Rules returns a snapshot of the registered preference rules.
func (f *Facade) Rules() []contextrank.Rule {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.sys.Rules().Rules()
}
