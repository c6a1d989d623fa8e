package shard

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/serve"
	"repro/internal/serve/journal"
)

// journalManifestName is the pointer to the current journal generation.
// Like the snapshot manifest it is the only thing that makes a generation
// authoritative, and it is switched by atomic rename — so a crash at any
// instant during boot-time replay leaves it pointing at a complete
// generation (the previous one until the switch, the new one after),
// never at a half-replayed mix.
const journalManifestName = "journal.manifest.json"

// journalManifestVersion guards the directory layout, not the per-file
// frame format (the journal file carries its own magic).
const journalManifestVersion = 1

type journalManifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Gen     string `json:"gen"`
}

// journalFile names shard i's WAL within journal generation gen.
func journalFile(dir, gen string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("sessions-%s-%03d.wal", gen, i))
}

// RecoveryStats describes a boot-time recovery: how much of the previous
// incarnation's journaled state came back, and how. Defined in serve so
// the stats/metrics layer can reference it without an import cycle.
type RecoveryStats = serve.RecoveryStats

// Recover makes the coordinator's state crash-durable against dir, in
// three steps:
//
//  1. A fresh journal generation is created — one WAL per shard — and
//     attached to every shard's server, so every acknowledged mutation
//     (session applies AND vocabulary/data writes) is journaled from
//     here on.
//  2. The previous generation (per the journal manifest, if any) is
//     replayed in per-file sequence order by feeding each record to
//     Coordinator.Apply, the function live traffic goes through. Session
//     and subscription records are *routed*: each lands on whatever
//     shard owns its user at the current shard count, so recovery at a
//     different -shards value reassigns them exactly like live traffic
//     would. Vocabulary records are *broadcast* under their original
//     broadcast id (an untagged one — unsharded-server history — under a
//     fresh id); because every shard's WAL carries a copy of every
//     broadcast, the id dedups them to exactly one apply, and records the
//     restored snapshot already covers (per the snapshot manifest's
//     checkpoint fields, matched by journal generation) are skipped
//     outright. Because Apply journals what it applies, the replay
//     simultaneously rewrites the surviving state into the new
//     generation (a free compaction).
//  3. The manifest is switched to the new generation by atomic rename and
//     superseded files are removed best-effort.
//
// A crash before step 3's rename leaves the manifest on the old
// generation: the next boot replays the same complete state again
// (session replay is idempotent, and checkpoint coverage plus broadcast
// ids make vocabulary replay exactly-once against the same snapshot) and
// the partial new-generation files are cleaned up as stale.
//
// Call once, after construction (and snapshot restore) but before serving
// traffic. Pair with CloseJournals on shutdown.
func (c *Coordinator) Recover(dir string, opts journal.Options) (RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("shard: journal dir: %w", err)
	}

	var prev *journalManifest
	raw, err := os.ReadFile(filepath.Join(dir, journalManifestName))
	switch {
	case err == nil:
		var m journalManifest
		if err := json.Unmarshal(raw, &m); err != nil {
			return stats, fmt.Errorf("shard: parsing journal manifest: %w", err)
		}
		if m.Version != journalManifestVersion {
			return stats, fmt.Errorf("shard: journal manifest version %d unsupported (want %d)", m.Version, journalManifestVersion)
		}
		if m.Shards <= 0 {
			return stats, fmt.Errorf("shard: journal manifest reports %d shards", m.Shards)
		}
		prev = &m
	case os.IsNotExist(err):
		// First boot with journaling: nothing to replay.
	default:
		return stats, fmt.Errorf("shard: reading journal manifest: %w", err)
	}

	var genBytes [8]byte
	if _, err := rand.Read(genBytes[:]); err != nil {
		return stats, fmt.Errorf("shard: journal gen id: %w", err)
	}
	gen := hex.EncodeToString(genBytes[:])
	js := make([]*journal.Journal, len(c.shards))
	for i := range c.shards {
		j, _, err := journal.Open(journalFile(dir, gen, i), opts)
		if err != nil {
			for _, open := range js[:i] {
				open.Close()
			}
			return stats, fmt.Errorf("shard: opening journal %d: %w", i, err)
		}
		js[i] = j
		c.shards[i].AttachJournal(j)
	}
	c.journals = js
	c.journalGen = gen
	c.journalDir = dir
	c.fs = opts.FS
	if c.fs == nil {
		c.fs = journal.OSFS{}
	}

	if prev != nil {
		// Replay re-journals every surviving record through the attached
		// new-generation WALs. Each routed apply waits for its record's
		// commit, strictly one at a time, so with per-batch fsync on a
		// large session population boot would pay one fsync per record.
		// Suspend syncing for the replay window (no traffic is being
		// acknowledged — Recover runs before serving) and fsync
		// once per journal before the manifest switch below makes the new
		// generation authoritative.
		if !opts.NoSync {
			for _, j := range js {
				j.SetNoSync(true)
			}
		}
		// Checkpoint pairing: the snapshot manifest (same dir) names the
		// journal generation its checkpoint fields cover. Only when that
		// matches the generation being replayed may coverage be used to
		// skip records — an older snapshot paired with a since-replaced
		// generation says nothing about these files.
		var ckptSeqs []uint64
		var ckptBID uint64
		paired := false
		if sm, err := readSnapshotManifest(dir); err == nil && sm.JournalGen != "" && sm.JournalGen == prev.Gen {
			paired = true
			ckptSeqs = sm.CheckpointSeqs
			ckptBID = sm.CheckpointBID
		}
		// Prescan for the highest broadcast id in the old generation, and
		// seed the coordinator's counter past it *before* replaying:
		// untagged vocabulary records (written by an unsharded server) are
		// re-broadcast under fresh ids, and a fresh id colliding with a
		// historical one would make a future recovery wrongly dedup two
		// different writes.
		var maxBID uint64
		for i := 0; i < prev.Shards; i++ {
			_, _ = journal.Replay(journalFile(dir, prev.Gen, i), func(rec journal.Record) error {
				if rec.BID > maxBID {
					maxBID = rec.BID
				}
				return nil
			})
		}
		c.bid.Store(maxBID)
		// preserve keeps a record whose re-apply failed: append it raw to
		// its routing shard's new-generation WAL so the next boot retries
		// it. Without this the manifest switch plus stale-file cleanup
		// would destroy the only copy over a possibly transient apply
		// error (classic case: the boot snapshot predates the vocabulary
		// the session references). The Preserved flag exempts the record
		// from checkpoint truncation — its effect is not in any snapshot.
		var preserveErr error
		preserve := func(rec journal.Record) {
			stats.Failed++
			rec.Preserved = true
			if err := js[ShardIndex(rec.User, len(c.shards))].Append(rec); err != nil && preserveErr == nil {
				preserveErr = err
			}
		}
		seenBID := make(map[uint64]bool)
		for i := 0; i < prev.Shards; i++ {
			var covered uint64
			if paired && i < len(ckptSeqs) {
				covered = ckptSeqs[i]
			}
			path := journalFile(dir, prev.Gen, i)
			rs, err := journal.Replay(path, func(rec journal.Record) error {
				if rec.Op.IsVocab() {
					// Skip what the restored snapshot already contains —
					// by this shard's sequence cut, or by the broadcast
					// frontier (both generation-gated above). Preserved
					// records never applied, so no snapshot covers them.
					if !rec.Preserved && paired && (rec.Seq <= covered || (rec.BID > 0 && rec.BID <= ckptBID)) {
						stats.SkippedCheckpoint++
						return nil
					}
					// Every shard's WAL carries every broadcast; apply
					// the first copy, dedup the rest by broadcast id.
					if rec.BID > 0 && seenBID[rec.BID] {
						stats.SkippedDuplicate++
						return nil
					}
				}
				// Replay order within a file matches append order, so a
				// re-subscribe journals into the new generation (the push
				// stream resumes without the client re-subscribing) and a
				// later unsubscribe of the id retires it. A record whose
				// apply fails — or whose op is from a newer format revision
				// (serve.ErrUnknownOp) — is preserved verbatim rather than
				// aborting the replay or being silently dropped: one bad
				// record must not lose the rest, and a downgrade-then-upgrade
				// cycle keeps the data.
				out, err := c.Apply(rec)
				if err != nil {
					preserve(rec)
					return nil
				}
				if rec.BID > 0 {
					seenBID[rec.BID] = true
				}
				switch rec.Op {
				case journal.OpSet:
					if rec.Fingerprint != "" && out.Fingerprint != rec.Fingerprint {
						stats.FingerprintMismatches++
					}
				case journal.OpDrop:
					stats.Drops++
				case journal.OpDeclare:
					stats.Declares++
				case journal.OpAssert:
					stats.Asserts++
				case journal.OpAddRules:
					stats.RuleAdds++
				case journal.OpRemoveRule:
					stats.RuleRemoves++
				case journal.OpExec:
					stats.Execs++
				case journal.OpSubscribe:
					stats.Subscribes++
				case journal.OpUnsubscribe:
					stats.Unsubscribes++
				}
				return nil
			})
			if err != nil {
				stats.BadFiles++
				continue
			}
			if rs.Records > 0 || rs.Torn {
				stats.Files++
			}
			stats.Records += rs.Records
			if rs.Torn {
				stats.TornFiles++
			}
		}
		stats.Users = c.Stats().Sessions
		if preserveErr != nil {
			// A failed-replay record could not be written into the new
			// generation: abort *before* the manifest switch, so the old
			// generation — the only copy — stays authoritative and the
			// next boot retries. Proceeding would let the stale-file
			// cleanup delete the record while stats call it preserved.
			return stats, fmt.Errorf("shard: preserving failed records in new journal generation: %w", preserveErr)
		}
		if !opts.NoSync {
			for _, j := range js {
				j.SetNoSync(false)
				if err := j.Sync(); err != nil {
					return stats, fmt.Errorf("shard: syncing replayed journal: %w", err)
				}
			}
		}
	}

	// Publish the new generation durably: WAL file data is already
	// fsynced (per batch, or by the barrier above), so what remains is
	// metadata — the WAL directory entries, the manifest's *content*
	// (WriteFileSyncFS; a bare os.WriteFile could leave a zero-length
	// manifest after a power cut, bricking every subsequent boot), and
	// the rename itself. Only after all of that is the old generation
	// eligible for deletion.
	journal.SyncDirFS(c.fs, dir)
	mf, err := json.Marshal(journalManifest{Version: journalManifestVersion, Shards: len(c.shards), Gen: gen})
	if err != nil {
		return stats, err
	}
	tmp := filepath.Join(dir, journalManifestName+".tmp")
	if err := journal.WriteFileSyncFS(c.fs, tmp, mf, 0o644); err != nil {
		return stats, fmt.Errorf("shard: journal manifest: %w", err)
	}
	if err := c.fs.Rename(tmp, filepath.Join(dir, journalManifestName)); err != nil {
		return stats, fmt.Errorf("shard: journal manifest: %w", err)
	}
	journal.SyncDirFS(c.fs, dir)
	removeStaleJournals(dir, gen)
	published := stats
	c.recovery.Store(&published)
	return stats, nil
}

// removeStaleJournals best-effort deletes WAL files from generations other
// than keep — superseded generations, or leftovers of a boot that crashed
// before its manifest switch.
func removeStaleJournals(dir, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "sessions-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		if !strings.HasPrefix(name, "sessions-"+keep+"-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// CloseJournals detaches nothing — shards keep their references — but
// drains and closes every journal opened by Recover, returning
// the first error. Call after HTTP shutdown: a Set racing Close gets an
// explicit journal-closed error instead of a silent durability gap.
func (c *Coordinator) CloseJournals() error {
	var first error
	for _, j := range c.journals {
		if j == nil {
			continue
		}
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// journalOrZero unwraps an aggregate journal-stats pointer for merging.
func journalOrZero(s *journal.Stats) journal.Stats {
	if s == nil {
		return journal.Stats{}
	}
	return *s
}

// subsOrZero unwraps an aggregate subscription-stats pointer for merging.
func subsOrZero(s *serve.SubscriptionStats) serve.SubscriptionStats {
	if s == nil {
		return serve.SubscriptionStats{}
	}
	return *s
}
