package shard

import (
	"fmt"
	"sync"
	"time"
)

// CheckpointerOptions tunes the background checkpointer.
type CheckpointerOptions struct {
	// Interval triggers a checkpoint when this much time has passed since
	// the last one (or since start). Zero disables the time trigger.
	Interval time.Duration
	// Bytes triggers a checkpoint when the WAL holds at least this many
	// bytes of vocabulary records not yet covered by a checkpoint. Zero
	// disables the size trigger.
	Bytes int64
	// Poll is how often the triggers are evaluated. Defaults to 1s (or
	// Interval, if smaller).
	Poll time.Duration
	// OnError, if set, receives checkpoint failures. The checkpointer
	// keeps running either way — the next poll retries.
	OnError func(error)
}

// StartCheckpointer runs background checkpoints into dir until the
// returned stop function is called. A checkpoint fires when either
// trigger in opts says so; both disabled means the loop idles (stop
// still works). Failures count into Stats().Checkpoints.Failures and go
// to opts.OnError; the WAL keeps growing until a later attempt succeeds,
// so no durability is lost, only bound.
//
// Stop waits for an in-flight checkpoint to finish. Call it before the
// shutdown snapshot so the final Checkpoint cannot race a background
// one.
func (c *Coordinator) StartCheckpointer(dir string, opts CheckpointerOptions) (stop func()) {
	poll := opts.Poll
	if poll <= 0 {
		poll = time.Second
	}
	if opts.Interval > 0 && opts.Interval < poll {
		poll = opts.Interval
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := time.Now()
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
			}
			due := opts.Interval > 0 && time.Since(last) >= opts.Interval
			if !due && opts.Bytes > 0 && c.wal != nil && c.wal.Stats().VocabBytes >= opts.Bytes {
				due = true
			}
			if !due {
				continue
			}
			c.checkpointTimed(dir, opts.OnError)
			last = time.Now()
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// checkpointTimed runs one checkpoint and records its outcome in the
// coordinator's checkpoint counters (surfaced via Stats).
func (c *Coordinator) checkpointTimed(dir string, onError func(error)) {
	start := time.Now()
	err := c.Checkpoint(dir)
	if err != nil {
		c.ckptFailures.Add(1)
		if onError != nil {
			onError(err)
		}
		return
	}
	c.ckptCount.Add(1)
	c.ckptLastUnix.Store(time.Now().Unix())
	c.ckptLastDurUs.Store(time.Since(start).Microseconds())
	if c.wal != nil {
		c.ckptLastSeq.Store(c.wal.Stats().CheckpointSeq)
	}
}

// StartHealthProbe runs the degraded-mode probe every interval until the
// returned stop function is called: while the replica's journal is
// degraded, each tick tries serve.Server.ProbeDisk, which re-arms the WAL
// and re-journals the unjournaled tail once the disk takes writes again.
// onEvent (optional) receives one line per failed attempt and one on
// recovery — wire it to the daemon log.
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
			if !c.srv.Degraded() {
				continue
			}
			err := c.srv.ProbeDisk()
			switch {
			case onEvent == nil:
			case err != nil:
				onEvent(fmt.Sprintf("health probe: journal still degraded: %v", err))
			default:
				onEvent("health probe: journal recovered from degraded mode")
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}
