package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// AdmissionOptions tunes the admission controller. Zero values disable
// the corresponding control: MaxInFlight <= 0 means no concurrency bound,
// PerUserRate <= 0 means no per-user rate limit.
type AdmissionOptions struct {
	// MaxInFlight bounds concurrently executing requests; excess requests
	// wait in the bounded queue.
	MaxInFlight int
	// MaxQueue bounds requests waiting for an in-flight slot. A request
	// arriving with the queue full is shed with 429 instead of piling
	// onto an unbounded backlog (the collapse mode this layer exists to
	// prevent). 0 means no waiting: shed as soon as MaxInFlight is
	// reached.
	MaxQueue int
	// PerUserRate is each user's sustained request budget in requests per
	// second across the per-user endpoints (rank, batch rank, session
	// writes).
	PerUserRate float64
	// PerUserBurst is the token-bucket depth — how far above the
	// sustained rate a user may burst. 0 means max(1, PerUserRate).
	PerUserBurst float64
}

// Admission is the serving layer's overload defense: a bounded
// concurrency gate with a bounded wait queue (global), plus per-user
// token buckets (fairness — one abusive client exhausts its own bucket,
// not the service). Both controls shed with 429 + Retry-After rather
// than queueing without bound, so admitted requests keep their latency
// SLO while excess load is pushed back to clients.
//
// The hot path is cheap: the gate is one buffered-channel operation and
// two atomic adds; the per-user check takes a mutex only around a small
// map lookup and a float update — no I/O, no allocation after the
// bucket exists.
type Admission struct {
	opts AdmissionOptions
	sem  chan struct{} // in-flight slots; nil when MaxInFlight <= 0

	inflight atomic.Int64
	queued   atomic.Int64

	admitted  atomic.Int64
	shedQueue atomic.Int64
	shedUser  atomic.Int64

	mu      sync.Mutex
	buckets map[string]*tokenBucket
	now     func() time.Time // test hook; time.Now in production
}

// tokenBucket is one user's rate budget (guarded by Admission.mu).
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// maxTrackedUsers bounds the bucket map: past it, refill-complete (idle)
// buckets are pruned on the next miss, so an attacker cycling user IDs
// cannot grow memory without bound.
const maxTrackedUsers = 100_000

// NewAdmission builds an admission controller. Returns nil when every
// control is disabled, and all methods tolerate a nil receiver, so
// callers can wire it unconditionally.
func NewAdmission(opts AdmissionOptions) *Admission {
	if opts.MaxInFlight <= 0 && opts.PerUserRate <= 0 {
		return nil
	}
	if opts.PerUserRate > 0 && opts.PerUserBurst <= 0 {
		opts.PerUserBurst = opts.PerUserRate
		if opts.PerUserBurst < 1 {
			opts.PerUserBurst = 1
		}
	}
	a := &Admission{
		opts:    opts,
		buckets: make(map[string]*tokenBucket),
		now:     time.Now,
	}
	if opts.MaxInFlight > 0 {
		a.sem = make(chan struct{}, opts.MaxInFlight)
	}
	return a
}

// AcquireCtx claims an in-flight slot, waiting in the bounded queue if the
// gate is saturated. ok=false means the request must be shed with 429 and
// the suggested Retry-After: the queue was full, or ctx ended (its deadline
// expired or its client disconnected) while it waited — holding a queue
// slot for work nobody will read helps no one. On ok=true the returned
// release must be called exactly once when the request finishes.
func (a *Admission) AcquireCtx(ctx context.Context) (release func(), ok bool, retryAfter time.Duration) {
	if a == nil || a.sem == nil {
		return func() {}, true, 0
	}
	release = func() {
		a.inflight.Add(-1)
		<-a.sem
	}
	select {
	case a.sem <- struct{}{}:
		a.inflight.Add(1)
		a.admitted.Add(1)
		return release, true, 0
	default:
	}
	// Gate saturated: wait only if the queue has room.
	if a.queued.Add(1) > int64(a.opts.MaxQueue) {
		a.queued.Add(-1)
		a.shedQueue.Add(1)
		return nil, false, time.Second
	}
	select {
	case a.sem <- struct{}{}:
		a.queued.Add(-1)
		a.inflight.Add(1)
		a.admitted.Add(1)
		return release, true, 0
	case <-ctx.Done():
		a.queued.Add(-1)
		a.shedQueue.Add(1)
		return nil, false, time.Second
	}
}

// AllowUser charges one request against the user's token bucket.
// ok=false means the user is over budget and the request must be shed
// with 429; retryAfter is how long until the bucket holds a whole token
// again.
func (a *Admission) AllowUser(user string) (ok bool, retryAfter time.Duration) {
	if a == nil || a.opts.PerUserRate <= 0 {
		return true, 0
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[user]
	if b == nil {
		if len(a.buckets) >= maxTrackedUsers {
			a.pruneLocked(now)
		}
		b = &tokenBucket{tokens: a.opts.PerUserBurst, last: now}
		a.buckets[user] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * a.opts.PerUserRate
		if b.tokens > a.opts.PerUserBurst {
			b.tokens = a.opts.PerUserBurst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	a.shedUser.Add(1)
	wait := time.Duration((1 - b.tokens) / a.opts.PerUserRate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// pruneLocked drops buckets that have refilled to burst — users idle
// long enough that forgetting them is behavior-neutral (a fresh bucket
// starts at burst too). Called with mu held when the map hits the cap.
func (a *Admission) pruneLocked(now time.Time) {
	for user, b := range a.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*a.opts.PerUserRate >= a.opts.PerUserBurst {
			delete(a.buckets, user)
		}
	}
}

// AdmissionStats is the controller's observable state, exported at
// /metrics (and readable in tests).
type AdmissionStats struct {
	InFlight  int64
	Queued    int64
	Admitted  int64
	ShedQueue int64
	ShedUser  int64
}

// Stats snapshots the admission counters lock-free.
func (a *Admission) Stats() AdmissionStats {
	if a == nil {
		return AdmissionStats{}
	}
	return AdmissionStats{
		InFlight:  a.inflight.Load(),
		Queued:    a.queued.Load(),
		Admitted:  a.admitted.Load(),
		ShedQueue: a.shedQueue.Load(),
		ShedUser:  a.shedUser.Load(),
	}
}
