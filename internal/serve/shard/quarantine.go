package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// ErrQuarantined marks an operation refused because a shard is
// quarantined and its repair has not completed yet. Checkpoint returns
// it rather than cutting a snapshot that would freeze the divergence.
// The sentinel lives in serve (the error-envelope layer maps it to a
// machine-readable code there; serve cannot import shard).
var ErrQuarantined = serve.ErrQuarantined

// maxQuarantineShards bounds the quarantine bitmask. A coordinator with
// more shards still works — shards past the mask just never quarantine
// (broadcast errors surface to the caller as before).
const maxQuarantineShards = 64

// quarState is the coordinator's quarantine domain: which shards are
// fenced off from broadcasts and routing, why, and which users were
// rerouted to replicas while their home shard was out.
//
// The mask is the routing hot-path view (one atomic load; zero means
// every per-user operation takes the exact pre-quarantine path). All
// other state — per-shard info, consecutive-failure streaks, the
// rerouted-user set — changes only under mu, and mask writes happen
// under mu too, so slow-path readers that hold mu see a consistent
// picture.
type quarState struct {
	mask atomic.Uint64

	mu        sync.Mutex
	info      map[int]*quarInfo
	streak    []int          // consecutive broadcast failures per shard
	streakMin []uint64       // lowest failed BID in the current streak
	rerouted  map[string]int // user -> home shard, sessions applied on a replica

	quarantines   atomic.Int64
	repairs       atomic.Int64
	repairSkipped atomic.Int64
}

// quarInfo describes one quarantined shard.
type quarInfo struct {
	sinceBID uint64 // every broadcast with BID > sinceBID was missed
	since    time.Time
	reason   string
}

func (q *quarState) init(n int) {
	q.info = make(map[int]*quarInfo)
	q.streak = make([]int, n)
	q.streakMin = make([]uint64, n)
	q.rerouted = make(map[string]int)
}

func maskBit(i int) uint64 {
	if i < 0 || i >= maxQuarantineShards {
		return 0
	}
	return 1 << uint(i)
}

// nthHealthy returns the k-th (0-based) non-quarantined shard index. The
// last healthy shard is never quarantined, so k == 0 always resolves.
// Allocation-free (the quarantined path is rare but sits under the rank
// hot path).
func nthHealthy(k int, mask uint64, n int) int {
	for i := 0; i < n; i++ {
		if mask&maskBit(i) != 0 {
			continue
		}
		if k == 0 {
			return i
		}
		k--
	}
	return 0
}

// rerouteIndex picks the replacement shard for a user whose home shard
// is quarantined: jump-hash over the healthy subset, so every rerouted
// user lands deterministically on the same replica until the mask
// changes.
func rerouteIndex(user string, mask uint64, n int) int {
	return nthHealthy(ShardIndex(user, n-bits.OnesCount64(mask)), mask, n)
}

// routeFor is ShardFor with quarantine awareness: the user's home shard
// unless it is quarantined, in which case a healthy replica. With an
// empty mask this is exactly ShardIndex plus one atomic load.
func (c *Coordinator) routeFor(user string) int {
	home := ShardIndex(user, len(c.shards))
	mask := c.quar.mask.Load()
	if mask == 0 || mask&maskBit(home) == 0 {
		return home
	}
	return rerouteIndex(user, mask, len(c.shards))
}

// SetQuarantineAfter arms quarantining: a shard whose broadcast applies
// fail (or panic) this many times consecutively is fenced off and
// repaired in the background. Zero (the default) disables quarantining —
// broadcast errors surface to the caller as before.
func (c *Coordinator) SetQuarantineAfter(n int) { c.quarAfter.Store(int64(n)) }

// SetFaultInjector attaches a fault injector to the coordinator's rank
// and broadcast paths (points rank.serve and broadcast.apply). Nil
// detaches. The disabled cost is one atomic pointer load per operation.
func (c *Coordinator) SetFaultInjector(in *faultinject.Injector) { c.chaos.Store(in) }

// Quarantined returns the quarantined shard indexes in order.
func (c *Coordinator) Quarantined() []int {
	mask := c.quar.mask.Load()
	if mask == 0 {
		return nil
	}
	var out []int
	for i := range c.shards {
		if mask&maskBit(i) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// noteBroadcastResult updates shard i's consecutive-failure streak after
// a broadcast and quarantines it when the armed threshold is crossed.
// Returns true when the error was absorbed by a quarantine (the caller
// suppresses it: the write is durable on the healthy shards and repair
// will replay it onto this one).
//
// ErrDegraded never counts: a degraded journal is a disk problem handled
// by the probe/degraded machinery, not a divergence — and broadcast
// pre-checks reject before applying anywhere, so nothing was missed.
func (c *Coordinator) noteBroadcastResult(i int, bid uint64, err error) (absorbed bool) {
	threshold := int(c.quarAfter.Load())
	if threshold <= 0 {
		return false
	}
	c.quar.mu.Lock()
	defer c.quar.mu.Unlock()
	if err == nil || errors.Is(err, serve.ErrDegraded) {
		c.quar.streak[i] = 0
		return false
	}
	// The streak's lowest failed BID marks the replay horizon: every
	// broadcast in a consecutive-failure streak was applied (and
	// journaled) on the healthy shards, so repair must replay all of
	// them, not just the one that crossed the threshold. Broadcasts run
	// concurrently, so the minimum — not the first observed — is what
	// bounds the missed range.
	if c.quar.streak[i] == 0 || bid < c.quar.streakMin[i] {
		c.quar.streakMin[i] = bid
	}
	c.quar.streak[i]++
	if c.quar.streak[i] < threshold {
		return false
	}
	return c.quarantineLocked(i, c.quar.streakMin[i]-1, err)
}

// quarantineLocked fences shard i (mu held). The last healthy shard is
// never quarantined — routing and repair both need a live replica, so
// its errors keep surfacing to callers instead.
func (c *Coordinator) quarantineLocked(i int, sinceBID uint64, cause error) bool {
	bit := maskBit(i)
	if bit == 0 {
		return false
	}
	mask := c.quar.mask.Load()
	if mask&bit != 0 {
		return true // already quarantined; absorb repeat errors too
	}
	healthy := 0
	for k := range c.shards {
		if mask&maskBit(k) == 0 {
			healthy++
		}
	}
	if healthy <= 1 {
		return false
	}
	c.quar.info[i] = &quarInfo{sinceBID: sinceBID, since: time.Now(), reason: cause.Error()}
	c.quar.streak[i] = 0
	c.quar.mask.Store(mask | bit)
	c.quar.quarantines.Add(1)
	return true
}

// RepairShard replays everything a quarantined shard missed from a
// healthy replica's WAL and readmits it. It runs under the broadcast
// gate's write side: no broadcast is in flight, so the healthy WALs
// already hold every record with BID > the quarantine point, and no new
// one can land mid-repair.
//
// Records are fed to the shard's Apply — the same function live traffic
// and boot replay use — still carrying their original broadcast ids, so
// the repaired shard's own WAL stays an independently replayable full
// log. An apply that fails twice is skipped and counted (Stats reports
// RepairSkipped) rather than wedging the repair — broadcast writes are
// assert-style and a later broadcast of the same fact converges the
// replica. A *panic* during the replay is different: the engine is still
// wedged, so the repair aborts (behind a recover barrier — it must not
// kill the probe goroutine) and the shard stays quarantined for the next
// probe round. The attached fault injector fires at broadcast.apply here
// too, so an armed per-shard fault keeps the shard fenced until it is
// cleared, exactly like a real still-broken engine.
//
// After the replay, sessions applied on replicas while the shard was out
// are migrated back to it, and the shard rejoins routing and broadcasts.
func (c *Coordinator) RepairShard(i int) error {
	c.bcastGate.Lock()
	defer c.bcastGate.Unlock()

	c.quar.mu.Lock()
	info := c.quar.info[i]
	mask := c.quar.mask.Load()
	c.quar.mu.Unlock()
	if info == nil {
		return nil
	}

	if c.journals != nil {
		src := -1
		for k := range c.shards {
			if k != i && mask&maskBit(k) == 0 {
				src = k
				break
			}
		}
		if src < 0 {
			return errors.New("shard: no healthy replica to repair from")
		}
		target := c.shards[i]
		if err := c.replayOntoShard(i, src, target, info.sinceBID); err != nil {
			return fmt.Errorf("shard: repairing shard %d from shard %d: %w", i, src, err)
		}
	} else if c.bid.Load() != info.sinceBID {
		// Without journals there is no log to replay the missed
		// broadcasts from; the shard can only rejoin if nothing was
		// broadcast while it was out.
		return errors.New("shard: cannot repair without journals: broadcasts were missed")
	}

	c.quar.mu.Lock()
	for user, home := range c.quar.rerouted {
		if home != i {
			continue
		}
		alt := rerouteIndex(user, mask, len(c.shards))
		if ms, _, ok := c.shards[alt].SessionInfo(user); ok {
			if _, err := c.shards[i].SetSession(user, ms); err == nil {
				c.shards[alt].DropSession(user)
			}
		} else {
			// Dropped (or expired) while rerouted: make sure no
			// pre-quarantine session survives on the home shard.
			c.shards[i].DropSession(user)
		}
		delete(c.quar.rerouted, user)
	}
	// Migrate standing subscriptions home the same way: any subscription
	// whose owner routes to the repaired shard but that lives elsewhere
	// was rerouted (or created) while the shard was out. Re-register on
	// the home shard, then retire the replica's copy; both sides journal,
	// so the WALs track the move. The replica-side stream ends — the SSE
	// layer tells the consumer to reconnect, which finds the home copy.
	for k, s := range c.shards {
		if k == i {
			continue
		}
		for _, info := range s.Subscriptions() {
			if ShardIndex(info.User, len(c.shards)) != i {
				continue
			}
			spec := serve.SubscriptionSpec{User: info.User, RankItem: serve.RankItem{
				Target: info.Target, Candidates: info.Candidates,
				Threshold: info.Threshold, Limit: info.Limit, TopK: info.TopK,
			}}
			if _, err := c.shards[i].Subscribe(info.ID, spec); err == nil {
				s.Unsubscribe(info.ID)
			}
		}
	}
	delete(c.quar.info, i)
	c.quar.streak[i] = 0
	c.quar.mask.Store(c.quar.mask.Load() &^ maskBit(i))
	c.quar.mu.Unlock()
	c.quar.repairs.Add(1)
	return nil
}

// replayOntoShard replays shard src's WAL records with BID > sinceBID
// onto target (shard i), converting a panic into an error so a
// still-wedged engine aborts the repair instead of the process.
func (c *Coordinator) replayOntoShard(i, src int, target *serve.Server, sinceBID uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			serve.NotePanic()
			err = fmt.Errorf("panic during repair: %v", r)
		}
	}()
	_, err = journal.Replay(journalFile(c.journalDir, c.journalGen, src), func(rec journal.Record) error {
		if !rec.Op.IsVocab() || rec.BID <= sinceBID {
			return nil
		}
		if in := c.chaos.Load(); in != nil {
			if ferr := in.Fire(faultinject.BroadcastApply, i); ferr != nil {
				return ferr // shard still faulted: abort, stay quarantined
			}
		}
		if _, aerr := target.Apply(rec); aerr != nil {
			// One retry: transient (journal hiccup) vs real.
			if _, aerr = target.Apply(rec); aerr != nil {
				c.quar.repairSkipped.Add(1)
			}
		}
		return nil
	})
	return err
}

// ProbeHealth runs one round of self-healing: every degraded shard gets
// a disk probe (re-arming its journal and re-journaling the unjournaled
// tail), and every quarantined shard gets a repair attempt. Returns the
// first error (probing/repairing continues past failures — each shard
// heals independently).
func (c *Coordinator) ProbeHealth() error {
	var first error
	for i, s := range c.shards {
		if !s.Degraded() {
			continue
		}
		if err := s.ProbeDisk(); err != nil && first == nil {
			first = fmt.Errorf("shard %d: disk probe: %w", i, err)
		}
	}
	for _, i := range c.Quarantined() {
		if err := c.RepairShard(i); err != nil && first == nil {
			first = fmt.Errorf("shard %d: repair: %w", i, err)
		}
	}
	return first
}

// StartHealthProbe runs ProbeHealth every interval until the returned
// stop function is called. onEvent (optional) receives one line per
// state transition or failed attempt — wire it to the daemon log.
func (c *Coordinator) StartHealthProbe(interval time.Duration, onEvent func(string)) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			degraded, quarantined := c.unhealthy()
			if len(degraded)+len(quarantined) == 0 {
				continue
			}
			err := c.ProbeHealth()
			if onEvent == nil {
				continue
			}
			switch {
			case err != nil:
				onEvent(fmt.Sprintf("health probe: degraded=%v quarantined=%v: %v", degraded, quarantined, err))
			default:
				onEvent(fmt.Sprintf("health probe: recovered degraded=%v quarantined=%v", degraded, quarantined))
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// unhealthy lists the currently degraded and quarantined shard indexes.
func (c *Coordinator) unhealthy() (degraded, quarantined []int) {
	for i, s := range c.shards {
		if s.Degraded() {
			degraded = append(degraded, i)
		}
	}
	return degraded, c.Quarantined()
}
