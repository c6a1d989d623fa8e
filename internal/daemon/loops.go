package daemon

import (
	"log"
	"time"
)

// every runs fn each interval on a goroutine of its own until stopLoops.
// The checkpointer and the health probe are its two callers.
func (d *Daemon) every(interval time.Duration, fn func()) {
	d.loops.Add(1)
	go func() {
		defer d.loops.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-ticker.C:
				fn()
			}
		}
	}()
}

// stopLoops ends every loop started by every and waits for them; a pass in
// flight (say, a background checkpoint) finishes first. Idempotent.
func (d *Daemon) stopLoops() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.loops.Wait()
}

// runCheckpointer runs background checkpoints into dir. One fires when
// interval has passed since the last (or since start), or when the WAL
// holds at least bytes of vocabulary records not yet covered by a
// checkpoint; a zero value disables its trigger. The triggers are
// evaluated every second, or every interval when that is shorter.
// Failures count into Stats().Checkpoints.Failures and go to the log; the
// WAL keeps growing until a later attempt succeeds, so no durability is
// lost, only bound.
func (d *Daemon) runCheckpointer(dir string, interval time.Duration, bytes int64) {
	poll := time.Second
	if interval > 0 && interval < poll {
		poll = interval
	}
	last := time.Now()
	d.every(poll, func() {
		due := interval > 0 && time.Since(last) >= interval
		if !due && bytes > 0 && d.wal.Stats().VocabBytes >= bytes {
			due = true
		}
		if !due {
			return
		}
		d.checkpointTimed(dir)
		last = time.Now()
	})
}

// checkpointTimed runs one checkpoint and records its outcome in the
// daemon's checkpoint counters (surfaced via Stats).
func (d *Daemon) checkpointTimed(dir string) {
	start := time.Now()
	if err := d.Checkpoint(dir); err != nil {
		d.ckptFailures.Add(1)
		log.Printf("background checkpoint: %v", err)
		return
	}
	d.ckptCount.Add(1)
	d.ckptLastUnix.Store(time.Now().Unix())
	d.ckptLastDurUs.Store(time.Since(start).Microseconds())
	d.ckptLastSeq.Store(d.wal.Stats().CheckpointSeq)
}

// runHealthProbe runs the degraded-mode probe every interval (a second
// when interval is not positive): while the replica's journal is degraded,
// each tick tries serve.Server.ProbeDisk, which re-arms the WAL and
// re-journals the unjournaled tail once the disk takes writes again. Each
// failed attempt, and the recovery, is one log line.
func (d *Daemon) runHealthProbe(interval time.Duration) {
	if interval <= 0 {
		interval = time.Second
	}
	d.every(interval, func() {
		if !d.Degraded() {
			return
		}
		if err := d.ProbeDisk(); err != nil {
			log.Printf("health probe: journal still degraded: %v", err)
		} else {
			log.Printf("health probe: journal recovered from degraded mode")
		}
	})
}
