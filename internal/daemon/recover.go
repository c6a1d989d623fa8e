package daemon

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

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
	header
	Gen string `json:"gen"`
}

// journalFile names WAL file i within journal generation gen. A
// generation written by this build holds file 0 only; one written by a
// build that kept one replica per shard holds one file per shard.
func journalFile(dir, gen string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("sessions-%s-%03d.wal", gen, i))
}

// RecoveryStats describes a boot-time recovery: how much of the previous
// incarnation's journaled state came back, and how. Defined in serve so
// the stats/metrics layer can reference it without an import cycle.
type RecoveryStats = serve.RecoveryStats

// Recover makes the daemon's state crash-durable against dir, in
// three steps:
//
//  1. A fresh journal generation is created and attached to the
//     replica's server, so every acknowledged mutation (session applies
//     AND vocabulary/data writes) is journaled from here on.
//  2. The previous generation (per the journal manifest, if any) is
//     replayed file by file in sequence order by feeding each record to
//     serve.Server.Apply, the function live traffic goes through. Records
//     the restored snapshot already covers (per the snapshot manifest's
//     checkpoint fields, matched by journal generation) are skipped
//     outright. Because Apply journals what it applies, the replay
//     simultaneously rewrites the surviving state into the new
//     generation (a free compaction).
//  3. The manifest is switched to the new generation by atomic rename and
//     superseded files are removed best-effort.
//
// A generation written by a build that kept one replica per shard holds
// one WAL per shard, each carrying every vocabulary write under a shared
// broadcast id (BID): its files are replayed in shard order, each BID is
// applied once, and a checkpoint's BID frontier counts as coverage. The
// merged records are journaled without their BIDs.
//
// A crash before step 3's rename leaves the manifest on the old
// generation: the next boot replays the same complete state again
// (session replay is idempotent, and checkpoint coverage makes vocabulary
// replay exactly-once against the same snapshot) and the partial
// new-generation file is cleaned up as stale.
//
// Call once, after construction (and snapshot restore) but before serving
// traffic. Close closes the journal it opens.
func (d *Daemon) Recover(dir string, opts journal.Options) (RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return stats, fmt.Errorf("daemon: journal dir: %w", err)
	}

	var prev *journalManifest
	var m journalManifest
	switch err := readManifest(dir, journalManifestName, journalManifestVersion, &m, &m.header); {
	case err == nil:
		prev = &m
	case !errors.Is(err, fs.ErrNotExist): // none: first boot with journaling, nothing to replay
		return stats, err
	}

	gen, err := newGen()
	if err != nil {
		return stats, err
	}
	j, _, err := journal.Open(journalFile(dir, gen, 0), opts)
	if err != nil {
		return stats, fmt.Errorf("daemon: opening journal: %w", err)
	}
	d.Server.AttachJournal(j)
	d.wal = j
	d.journalGen = gen
	d.fs = opts.FS
	if d.fs == nil {
		d.fs = journal.OSFS{}
	}

	if prev != nil {
		// Replay re-journals every surviving record through the attached
		// new-generation WAL. Each apply waits for its record's commit,
		// strictly one at a time, so with per-batch fsync on a large
		// session population boot would pay one fsync per record.
		// Suspend syncing for the replay window (no traffic is being
		// acknowledged — Recover runs before serving) and fsync once
		// before the manifest switch below makes the new generation
		// authoritative.
		if !opts.NoSync {
			j.SetNoSync(true)
		}
		if err := d.replay(dir, prev, &stats); err != nil {
			return stats, err
		}
		if !opts.NoSync {
			j.SetNoSync(false)
			if err := j.Sync(); err != nil {
				return stats, fmt.Errorf("daemon: syncing replayed journal: %w", err)
			}
		}
	}

	// Publish the new generation: WAL file data is already fsynced (per
	// batch, or by the barrier above). Only after the manifest switch is
	// the old generation eligible for deletion.
	if err := d.publish(dir, journalManifestName, journalManifest{header{journalManifestVersion, 1}, gen}); err != nil {
		return stats, err
	}
	removeStale(dir, "sessions-", ".wal", gen)
	published := stats
	d.recovery.Store(&published)
	return stats, nil
}

// replay applies the previous generation's files onto the replica (see
// Recover), counting into stats.
func (d *Daemon) replay(dir string, prev *journalManifest, stats *RecoveryStats) error {
	// Checkpoint pairing: the snapshot manifest (same dir) names the
	// journal generation its checkpoint fields cover. Only when that
	// matches the generation being replayed may coverage be used to skip
	// records — an older snapshot paired with a since-replaced generation
	// says nothing about these files.
	var ckptSeqs []uint64
	var ckptBID uint64
	paired := false
	var sm manifest
	if err := readManifest(dir, manifestName, manifestVersion, &sm, &sm.header); err == nil && sm.JournalGen != "" && sm.JournalGen == prev.Gen {
		paired = true
		ckptSeqs = sm.CheckpointSeqs
		ckptBID = sm.CheckpointBID
	}
	// preserve keeps a record whose re-apply failed: append it raw to the
	// new-generation WAL so the next boot retries it. Without this the
	// manifest switch plus stale-file cleanup would destroy the only copy
	// over a possibly transient apply error (classic case: the boot
	// snapshot predates the vocabulary the session references), or drop
	// a record whose op a newer build wrote. The Preserved flag exempts
	// the record from checkpoint truncation — its effect is not in any
	// snapshot.
	var preserveErr error
	preserve := func(rec journal.Record) {
		stats.Failed++
		rec.Preserved = true
		if err := d.wal.Append(rec); err != nil && preserveErr == nil {
			preserveErr = err
		}
	}
	seenBID := make(map[uint64]bool)
	for i := 0; i < prev.Shards; i++ {
		var covered uint64
		if paired && i < len(ckptSeqs) {
			covered = ckptSeqs[i]
		}
		rs, err := journal.Replay(journalFile(dir, prev.Gen, i), func(rec journal.Record) error {
			bid := rec.BID
			if rec.Op.IsVocab() {
				// Skip what the restored snapshot already contains — by
				// this file's sequence cut, or by the broadcast frontier
				// (both generation-gated above). Preserved records never
				// applied, so no snapshot covers them.
				if !rec.Preserved && paired && (rec.Seq <= covered || (bid > 0 && bid <= ckptBID)) {
					stats.SkippedCheckpoint++
					return nil
				}
				// Every file of a per-shard-replica generation carries
				// every vocabulary write; apply the first copy.
				if bid > 0 && seenBID[bid] {
					stats.SkippedDuplicate++
					return nil
				}
			}
			// Replay order within a file matches append order, so a
			// re-subscribe journals into the new generation (the push
			// stream resumes without the client re-subscribing) and a
			// later unsubscribe of the id retires it. A record whose apply
			// fails — or whose op is from a newer format revision
			// (serve.ErrUnknownOp) — is preserved verbatim rather than
			// aborting the replay or being silently dropped: one bad
			// record must not lose the rest, and a downgrade-then-upgrade
			// cycle keeps the data.
			applied := rec
			applied.BID = 0
			out, err := d.Server.Apply(applied)
			if err != nil {
				preserve(rec)
				return nil
			}
			if bid > 0 {
				seenBID[bid] = true
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
	stats.Users = d.Server.Stats().Sessions
	if preserveErr != nil {
		// A failed-replay record could not be written into the new
		// generation: abort *before* the manifest switch, so the old
		// generation — the only copy — stays authoritative and the next
		// boot retries. Proceeding would let the stale-file cleanup
		// delete the record while stats call it preserved.
		return fmt.Errorf("daemon: preserving failed records in new journal generation: %w", preserveErr)
	}
	return nil
}
