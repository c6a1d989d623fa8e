// Standing rank subscriptions: a client registers a rank request once
// (user + target or candidate list, plus the shared result-shaping
// options) and is pushed score deltas whenever a context apply, session
// drop, vocabulary write or rule change moves that user's scores —
// instead of polling /v1/rank after every sensor update.
//
// One evaluator goroutine per Server (started by the first subscription,
// stopped by Server.Close) re-ranks the registered subscriptions after
// mutations. It is woken by a buffered poke channel
// (every mutator pokes on its way out; a poke during a pass stays queued,
// so the pass after it observes the newest state) and skips any
// subscription whose last pushed ranking still stands — the question a
// rank-cache hit asks (Server.stands): the owner's plan still holds and
// nobody's write reached the target's members — so a write never pays a
// re-rank for user B unless it moved B's scores (B's own apply, an apply
// coupled through a rule's role filler, a failed one or an assert reaching
// B's context: the write forgot B's plan, see Sessions and Server.Apply; a
// write to a table B's rules' preferences read: the plan's handles) or B's
// candidates (A entered a session concept B's target mentions: the target's
// handle). Evaluation is a rank like any other
// (Server.rank) — and after the owner's own context apply, or a vocabulary
// write, their plan is compiled again (see planFor): the compile pays for the
// owner's context — unless the write reached no rule's context — and the
// rule partition, while the preference memberships and the document side are
// shared and carried across writes by the loader, which is what makes push
// re-ranking affordable at catalog scale. After a write that moved none of a
// cut ranking's candidates into it, the rank revalidates the cached ranking
// (Server.revalidate) and hands back the very result slice the subscription
// stands on, which evalSub takes as it is: no diff, no event.
//
// Events are pushed into a bounded per-subscription channel consumed by
// one SSE listener (GET /v1/subscriptions/{id}/events). When the
// listener is slow and the channel fills, events are dropped and the
// subscription is marked lagged; the stream then emits a fresh resync
// snapshot instead of an incomplete delta sequence, so a consumer that
// applies deltas in order is never silently wrong.
//
// Subscriptions are journaled (OpSubscribe/OpUnsubscribe) under the same
// discipline as sessions: Server.Apply submits the record while the
// registry lock is held (so racing replaces of one id journal in the
// order they took effect), it is durable before the create/delete is
// acknowledged, it survives checkpoints (snapshots never contain
// subscription state), and boot-time replay re-registers it through the
// routed Apply path — standing queries outlive crashes.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/journal"
)

// SubscriptionSpec is the standing rank request a subscription
// re-evaluates after every relevant state change: a user and the batch
// item ranked for them. Exactly one of Target (a DL concept expression) or
// Candidates (explicit ids, the §5 query-integration shape) must be set.
// Explain is not part of a subscription (explanations would bloat every
// pushed delta): the journal record does not carry it, so it is dropped.
type SubscriptionSpec struct {
	User string
	RankItem
}

// SubscriptionInfo is a subscription's observable state, shaped for the
// /v1/subscriptions endpoints.
type SubscriptionInfo struct {
	ID         string   `json:"id"`
	User       string   `json:"user"`
	Target     string   `json:"target,omitempty"`
	Candidates []string `json:"candidates,omitempty"`
	Threshold  float64  `json:"threshold,omitempty"`
	Limit      int      `json:"limit,omitempty"`
	TopK       int      `json:"top_k,omitempty"`
	// Seq is the last pushed event's sequence number; Events counts
	// events pushed since the subscription was created.
	Seq    uint64 `json:"seq"`
	Events int64  `json:"events"`
	// Attached reports whether an SSE consumer is currently connected.
	Attached bool `json:"attached"`
	// Shard is the shard holding the subscription: always 0, the one
	// replica.
	Shard int `json:"shard"`
}

// SubResult is one (id, score) pair in a snapshot or resync event.
type SubResult struct {
	ID    string  `json:"id"`
	Score float64 `json:"score"`
}

// SubChange is one score movement in a delta event. Prev is nil when the
// candidate newly entered the result set.
type SubChange struct {
	ID    string   `json:"id"`
	Score float64  `json:"score"`
	Prev  *float64 `json:"prev,omitempty"`
}

// SubEvent is one pushed subscription event. Type is "snapshot" (first
// event on a stream, and after Unsubscribe-free reconnects), "delta"
// (score movements since the previous event), "resync" (a fresh snapshot
// after the consumer lagged and deltas were dropped), "error" (the
// standing rank failed — e.g. its target refers to removed vocabulary;
// the subscription stays registered and recovers with the vocabulary),
// or "unsubscribed" (terminal).
type SubEvent struct {
	Type string `json:"type"`
	ID   string `json:"id"`
	Seq  uint64 `json:"seq"`
	// Epoch is the facade epoch the event's scores were computed at.
	Epoch   int64       `json:"epoch,omitempty"`
	Results []SubResult `json:"results,omitempty"` // snapshot/resync: the full ranking
	Changes []SubChange `json:"changes,omitempty"` // delta: moved or entered
	Removed []string    `json:"removed,omitempty"` // delta: left the result set
	Error   string      `json:"error,omitempty"`
}

// ErrSubscriptionBusy marks a second concurrent stream attach: a
// subscription's delta chain has exactly one consumer (two would each
// see half the deltas). The handler maps it to 409 Conflict.
var ErrSubscriptionBusy = errors.New("serve: subscription stream already attached")

// subEventBuffer bounds each subscription's event channel. A consumer
// further behind than this has missed the delta chain anyway; it gets a
// resync snapshot instead of a blocked evaluator.
const subEventBuffer = 64

// Subscription is one standing rank registration. All mutable state is
// guarded by mu; the evaluator and the SSE stream are the only writers.
type Subscription struct {
	id   string
	spec SubscriptionSpec

	mu       sync.Mutex
	closed   bool
	attached bool
	lagged   bool
	seq      uint64
	pushes   int64
	// evaluated + the ranking the last evaluation returned, with what it
	// stands on (on an error, nothing; see evalSub): the diff baseline for
	// the next evaluation and the source of snapshot and resync events.
	evaluated bool
	ranking   ranked
	lastErr   string
	events    chan SubEvent
}

func newSubscription(id string, spec SubscriptionSpec) *Subscription {
	return &Subscription{
		id:     id,
		spec:   spec,
		events: make(chan SubEvent, subEventBuffer),
	}
}

// info snapshots the subscription under its lock.
func (sub *Subscription) info() SubscriptionInfo {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return SubscriptionInfo{
		ID:         sub.id,
		User:       sub.spec.User,
		Target:     sub.spec.Target,
		Candidates: sub.spec.Candidates,
		Threshold:  sub.spec.Threshold,
		Limit:      sub.spec.Limit,
		TopK:       sub.spec.TopK,
		Seq:        sub.seq,
		Events:     sub.pushes,
		Attached:   sub.attached,
	}
}

// push delivers ev without ever blocking the evaluator: a full channel
// marks the subscription lagged (the stream resyncs) and drops the event.
// Caller holds sub.mu and has checked !sub.closed.
func (sub *Subscription) push(ev SubEvent) bool {
	select {
	case sub.events <- ev:
		sub.pushes++
		return true
	default:
		sub.lagged = true
		return false
	}
}

// snapshotEventLocked builds a snapshot/resync event from the last
// evaluated ranking — or, while the standing rank fails, the error event.
// Caller holds sub.mu.
func (sub *Subscription) snapshotEventLocked(typ string) SubEvent {
	if sub.lastErr != "" {
		return SubEvent{Type: "error", ID: sub.id, Seq: sub.seq, Error: sub.lastErr}
	}
	results := make([]SubResult, len(sub.ranking.res))
	for i, r := range sub.ranking.res {
		results[i] = SubResult{ID: r.ID, Score: r.Score}
	}
	return SubEvent{Type: typ, ID: sub.id, Seq: sub.seq, Epoch: sub.ranking.epoch, Results: results}
}

// close marks the subscription dead and closes its event channel exactly
// once. The evaluator checks closed under the same lock before pushing,
// so a send on the closed channel cannot race.
func (sub *Subscription) close() {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	sub.closed = true
	close(sub.events)
}

// SubscriptionStats is the subscription block of Stats.
type SubscriptionStats struct {
	// Active is the number of registered subscriptions.
	Active int64 `json:"active"`
	// Events counts pushed events (snapshots + deltas + errors).
	Events int64 `json:"events"`
	// Evals counts subscription re-rank evaluations; Skipped counts
	// evaluator passes over a subscription whose last ranking was still
	// current (the per-user fast path working as intended).
	Evals   int64 `json:"evals"`
	Skipped int64 `json:"skipped"`
	// Lagged counts events dropped because the consumer was behind; each
	// drop run ends in one resync snapshot.
	Lagged int64 `json:"lagged"`
}

// subRegistry is a server's standing-subscription set plus the evaluator
// wake-up machinery.
type subRegistry struct {
	mu   sync.Mutex
	subs map[string]*Subscription

	// count mirrors len(subs) so the poke fast path (every mutation) is
	// one atomic load when no subscriptions exist.
	count atomic.Int64
	// poke wakes the evaluator; buffered so a poke during a pass queues
	// exactly one follow-up pass.
	poke chan struct{}
	once sync.Once
	// done stops the evaluator (closed once, by Server.Close); running
	// counts it.
	done      chan struct{}
	closeOnce sync.Once
	running   sync.WaitGroup

	evals   atomic.Int64
	skipped atomic.Int64
	events  atomic.Int64
	lagged  atomic.Int64
}

func newSubRegistry() *subRegistry {
	return &subRegistry{subs: make(map[string]*Subscription), poke: make(chan struct{}, 1), done: make(chan struct{})}
}

// snapshot lists the registered subscriptions (order unspecified).
func (r *subRegistry) snapshot() []*Subscription {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Subscription, 0, len(r.subs))
	for _, sub := range r.subs {
		out = append(out, sub)
	}
	return out
}

func (r *subRegistry) stats() SubscriptionStats {
	return SubscriptionStats{
		Active:  r.count.Load(),
		Events:  r.events.Load(),
		Evals:   r.evals.Load(),
		Skipped: r.skipped.Load(),
		Lagged:  r.lagged.Load(),
	}
}

// newSubID mints a subscription id: random, unique across restarts (ids
// live in the WAL, so a counter would collide after recovery).
func newSubID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("serve: crypto/rand unavailable: %v", err))
	}
	return "sub-" + hex.EncodeToString(b[:])
}

// validateSubscription checks a spec the way the shared decode path
// checks a rank request.
func validateSubscription(spec SubscriptionSpec) error {
	if spec.User == "" {
		return fmt.Errorf("serve: subscription needs a user")
	}
	if spec.Target == "" && len(spec.Candidates) == 0 {
		return fmt.Errorf("serve: subscription needs a target or a candidate list")
	}
	if spec.Target != "" && len(spec.Candidates) > 0 {
		return fmt.Errorf("serve: subscription takes a target or a candidate list, not both")
	}
	if spec.TopK < 0 {
		return fmt.Errorf("serve: top_k must be positive (got %d)", spec.TopK)
	}
	return nil
}

// subscribe is Apply's OpSubscribe body: it registers (or replaces) the
// subscription rec describes, minting rec.SubID when empty, and calls
// submit — Apply's journal submit — while the registry lock is held.
func (s *Server) subscribe(rec *journal.Record, submit func()) (SubscriptionInfo, error) {
	if rec.Subscription == nil {
		return SubscriptionInfo{}, fmt.Errorf("serve: subscribe record %q carries no subscription", rec.SubID)
	}
	js := rec.Subscription
	spec := SubscriptionSpec{User: rec.User, RankItem: RankItem{Target: js.Target, Candidates: js.Candidates, TopK: js.TopK, Limit: js.Limit}}
	if js.Threshold != nil {
		spec.Threshold = *js.Threshold
	}
	if err := validateSubscription(spec); err != nil {
		return SubscriptionInfo{}, err
	}
	if rec.SubID == "" {
		rec.SubID = newSubID()
	}
	sub := newSubscription(rec.SubID, spec)
	s.subs.mu.Lock()
	old := s.subs.subs[sub.id]
	s.subs.subs[sub.id] = sub
	s.subs.count.Store(int64(len(s.subs.subs)))
	submit()
	s.subs.mu.Unlock()
	if old != nil {
		// Replace semantics (what journal replay of a re-subscribe does):
		// the old stream ends, the new registration takes the id.
		old.close()
	}
	s.ensureEvaluator()
	return sub.info(), nil
}

// unsubscribe is Apply's OpUnsubscribe body, reporting whether the id
// existed; an unknown id still submits (see Apply on the resurrection
// guard). rec.User is filled with the owner, so the journaled record names
// whose subscription it retires.
func (s *Server) unsubscribe(rec *journal.Record, submit func()) bool {
	s.subs.mu.Lock()
	sub, found := s.subs.subs[rec.SubID]
	if found {
		delete(s.subs.subs, rec.SubID)
		s.subs.count.Store(int64(len(s.subs.subs)))
		rec.User = sub.spec.User
	}
	submit()
	s.subs.mu.Unlock()
	if found {
		sub.close()
	}
	return found
}

// Subscriptions lists the registered subscriptions.
func (s *Server) Subscriptions() []SubscriptionInfo {
	subs := s.subs.snapshot()
	out := make([]SubscriptionInfo, 0, len(subs))
	for _, sub := range subs {
		out = append(out, sub.info())
	}
	return out
}

// SubStream is one SSE consumer's view of a subscription: the initial
// snapshot plus the live event channel. Close detaches (the subscription
// itself stays registered).
type SubStream struct {
	sub      *Subscription
	reg      *subRegistry
	snapshot SubEvent
}

// User returns the subscription's owner.
func (st *SubStream) User() string { return st.sub.spec.User }

// Snapshot is the stream's opening event: the full current ranking (or
// the standing error, when the last evaluation failed).
func (st *SubStream) Snapshot() SubEvent { return st.snapshot }

// Events is the live event channel. It is closed when the subscription
// is unsubscribed (or replaced).
func (st *SubStream) Events() <-chan SubEvent { return st.sub.events }

// TakeLagged reports — and clears — the lagged flag. A true return means
// deltas were dropped since the last received event; the consumer must
// be resynced with a fresh snapshot (see Resync).
func (st *SubStream) TakeLagged() bool {
	st.sub.mu.Lock()
	defer st.sub.mu.Unlock()
	lagged := st.sub.lagged
	st.sub.lagged = false
	if lagged {
		st.reg.lagged.Add(1)
	}
	return lagged
}

// Resync builds a fresh snapshot event from the last evaluated ranking, or
// the standing error event while its rank fails.
func (st *SubStream) Resync() SubEvent {
	st.sub.mu.Lock()
	defer st.sub.mu.Unlock()
	return st.sub.snapshotEventLocked("resync")
}

// Close detaches the consumer.
func (st *SubStream) Close() {
	st.sub.mu.Lock()
	st.sub.attached = false
	st.sub.mu.Unlock()
}

// SubscriptionStream attaches the (single) SSE consumer to a
// subscription, returning its opening snapshot and event channel. A
// second concurrent attach is refused — two consumers of one delta
// stream would each see half the deltas.
func (s *Server) SubscriptionStream(id string) (*SubStream, error) {
	s.subs.mu.Lock()
	sub, ok := s.subs.subs[id]
	s.subs.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: no subscription %q", id)
	}
	// Make sure at least one evaluation ran so the opening snapshot is
	// the real ranking, not an empty placeholder.
	s.evalSub(sub)
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return nil, fmt.Errorf("serve: no subscription %q", id)
	}
	if sub.attached {
		return nil, fmt.Errorf("%w: %q", ErrSubscriptionBusy, id)
	}
	sub.attached = true
	// Drain queued events: the opening snapshot supersedes them, and a
	// reconnecting consumer must not replay deltas older than it.
	for {
		select {
		case <-sub.events:
			continue
		default:
		}
		break
	}
	sub.lagged = false
	return &SubStream{sub: sub, reg: s.subs, snapshot: sub.snapshotEventLocked("snapshot")}, nil
}

// ensureEvaluator starts the evaluator goroutine once. It parks on the
// poke channel until Close.
func (s *Server) ensureEvaluator() {
	s.subs.once.Do(func() {
		s.subs.running.Add(1)
		go s.subEvalLoop()
	})
}

// pokeSubs wakes the evaluator after a mutation. Non-blocking and O(1);
// with no subscriptions registered it is one atomic load.
func (s *Server) pokeSubs() {
	if s.subs.count.Load() == 0 {
		return
	}
	select {
	case s.subs.poke <- struct{}{}:
	default:
	}
}

// subEvalLoop is the evaluator: one pass over the registry per wake-up,
// until Close.
func (s *Server) subEvalLoop() {
	defer s.subs.running.Done()
	for {
		select {
		case <-s.subs.done:
			return
		case <-s.subs.poke:
		}
		for _, sub := range s.subs.snapshot() {
			s.evalSub(sub)
		}
	}
}

// evalSub re-ranks one subscription unless the ranking it last pushed still
// stands (Server.stands, the question a rank-cache hit asks), and pushes a
// snapshot (first evaluation), delta (scores moved) or error event. What it
// keeps is the ranking the rank returned, with the plan it stands on, so a
// mutation landing after the rank leaves it standing on nothing, and that
// mutation's own poke re-evaluates; a failed rank stands on nothing, so an
// erroring subscription is evaluated on every pass and pushes nothing while
// its error text is unchanged.
func (s *Server) evalSub(sub *Subscription) {
	item := sub.spec.RankItem
	rq := rankReq{target: item.Target, candidates: item.Candidates, opts: item.options("")}
	sub.mu.Lock()
	if sub.closed || (sub.evaluated && s.stands(sub.spec.User, sub.ranking)) {
		ranking, check := sub.ranking, !sub.closed
		sub.mu.Unlock()
		s.subs.skipped.Add(1)
		if verifyReuse && check {
			s.checkReuse("subscription skip", sub.spec.User, rq, ranking)
		}
		return
	}
	sub.mu.Unlock()
	s.subs.evals.Add(1)

	r, _, err := s.rank(sub.spec.User, rq)

	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	prev := sub.ranking.res
	sub.ranking = r
	first := !sub.evaluated
	sub.evaluated = true
	if err != nil {
		if sub.lastErr == err.Error() {
			return // the standing error is already on the stream
		}
		sub.lastErr = err.Error()
		sub.seq++
		if sub.push(sub.snapshotEventLocked("error")) {
			s.subs.events.Add(1)
		}
		return
	}
	recovered := sub.lastErr != ""
	sub.lastErr = ""
	if first || recovered {
		sub.seq++
		if sub.push(sub.snapshotEventLocked("snapshot")) {
			s.subs.events.Add(1)
		}
		return
	}
	if len(r.res) == len(prev) && (len(prev) == 0 || &r.res[0] == &prev[0]) {
		return // the ranking it already stands on, served again: nothing moved
	}
	before := make(map[string]float64, len(prev))
	for _, p := range prev {
		before[p.ID] = p.Score
	}
	var changes []SubChange
	for _, res := range r.res {
		if p, ok := before[res.ID]; !ok {
			changes = append(changes, SubChange{ID: res.ID, Score: res.Score})
		} else if p != res.Score {
			changes = append(changes, SubChange{ID: res.ID, Score: res.Score, Prev: &p})
		}
		delete(before, res.ID)
	}
	var removed []string
	for _, p := range prev {
		if _, gone := before[p.ID]; gone {
			removed = append(removed, p.ID)
		}
	}
	if len(changes)+len(removed) > 0 {
		sub.seq++
		if sub.push(SubEvent{
			Type: "delta", ID: sub.id, Seq: sub.seq, Epoch: r.epoch,
			Changes: changes, Removed: removed,
		}) {
			s.subs.events.Add(1)
		}
	}
}

// subKeepAlive is the SSE comment interval that keeps idle streams from
// being reaped by intermediaries; exported for tests via the handler.
const subKeepAlive = 15 * time.Second
