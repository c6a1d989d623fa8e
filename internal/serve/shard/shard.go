// Package shard keeps the names the benchmark harness compiles against,
// as thin forwarders over the daemon (internal/daemon): a Coordinator is a
// *daemon.Daemon under the shard-shaped surface of the builds that kept
// one replica per shard (New takes a count, Shard and ShardFor name the
// one replica).
package shard

import (
	"fmt"

	contextrank "repro"
	"repro/internal/daemon"
	"repro/internal/serve"
)

// Coordinator is the daemon; it implements serve.Backend.
type Coordinator struct{ *daemon.Daemon }

// RecoveryStats describes a boot-time recovery (see daemon.Daemon.Recover).
type RecoveryStats = serve.RecoveryStats

// New builds a daemon over one replica, whatever n ≥ 1 asks for: build(0)
// constructs its System and is called once.
func New(n int, build func(shard int) (*contextrank.System, error), opts serve.Options) (*Coordinator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: need at least 1 shard, got %d", n)
	}
	sys, err := build(0)
	if err != nil {
		return nil, fmt.Errorf("shard: building the replica: %w", err)
	}
	return &Coordinator{daemon.New(sys, opts)}, nil
}

// RestoreBuilder is daemon.Restorer as a New build function.
func RestoreBuilder(dir string) (build func(shard int) (*contextrank.System, error), saved int, err error) {
	restore, saved, err := daemon.Restorer(dir)
	return func(int) (*contextrank.System, error) { return restore() }, saved, err
}

// Shard returns the replica's server; every index names it.
func (c *Coordinator) Shard(int) *serve.Server { return c.Server }

// ShardFor returns 0, the one replica, for every user.
func (c *Coordinator) ShardFor(string) int { return 0 }

// SaveSnapshots is Checkpoint.
func (c *Coordinator) SaveSnapshots(dir string) error { return c.Checkpoint(dir) }

// CloseJournals is Close: it closes the journal, and stops the daemon's
// background work with it.
func (c *Coordinator) CloseJournals() error { return c.Close() }
