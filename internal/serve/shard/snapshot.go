package shard

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	contextrank "repro"
	"repro/internal/serve/journal"
)

// manifestName is the snapshot-directory manifest recording which save
// generation is current and how many shard files it holds.
const manifestName = "manifest.json"

// manifestVersion guards the directory layout, not the per-shard snapshot
// format (engine.Dump carries its own version).
const manifestVersion = 1

// manifest is the snapshot directory's pointer. A save writes one shard
// file (Shards = 1); a checkpoint saved by a build that kept one replica
// per shard holds Shards files, every one a full copy of the durable
// state, and carries CheckpointBID.
type manifest struct {
	Version int    `json:"version"`
	Shards  int    `json:"shards"`
	Save    string `json:"save"` // generation id the shard files carry
	// JournalGen pairs this snapshot with the WAL generation whose
	// records it covers. The checkpoint fields below are meaningful only
	// against that generation's files: after a boot creates a fresh
	// generation, an old snapshot's coverage says nothing about the new
	// files, and recovery ignores the fields rather than wrongly skipping
	// records. Empty when the save ran without journals.
	JournalGen string `json:"journal_gen,omitempty"`
	// CheckpointSeqs[i] is WAL file i's journal sequence at the snapshot
	// cut: every vocabulary record with Seq <= CheckpointSeqs[i] in file i
	// (of generation JournalGen) is reflected in the snapshot.
	CheckpointSeqs []uint64 `json:"checkpoint_seqs,omitempty"`
	// CheckpointBID is the broadcast-id frontier of a per-shard-replica
	// cut: every vocabulary record with a BID <= CheckpointBID is in the
	// snapshot. Read only; a save of one replica writes none.
	CheckpointBID uint64 `json:"checkpoint_bid,omitempty"`
}

// snapshotFile names shard i's file within save generation id.
func snapshotFile(dir, id string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%s-%03d.snapshot.json", id, i))
}

// SaveSnapshots dumps the replica's database (serve.Server.CheckpointDump:
// engine.Dump plus the persisted rule repository, minus session context)
// into dir as shard file 0 plus a manifest, creating dir if needed. The
// dump runs under the facade write lock, so it is a consistent cut.
//
// The save is atomic: every file of a save carries a fresh generation id,
// and the manifest — renamed into place last — is the only pointer to a
// generation. A crash at any instant leaves the manifest referencing a
// complete generation (the previous one until the final rename, the new
// one after). Files of superseded generations are removed best-effort
// after the manifest switch.
//
// Sessions are not part of snapshots: they are journaled continuously by
// the WAL instead (see Recover), which a boot replays on top of the
// restored snapshot. A coordinator without a journal simply starts
// sessionless, context being re-sensed (the paper's §5 position).
//
// With a journal attached a save IS a checkpoint: the manifest records
// the journal generation and the covered sequence, and the WAL is
// truncated down to its live sessions (plus any checkpoint-exempt
// records) once the manifest switch makes the snapshot authoritative.
// Checkpoint is the same operation under its own name; SIGTERM's final
// save and the background checkpointer share this path.
func (c *Coordinator) SaveSnapshots(dir string) error { return c.Checkpoint(dir) }

// Checkpoint snapshots the replica and truncates the WAL. The journal
// submit of every mutation happens inside the critical section that
// applied it, so the sequence CheckpointDump returns under the facade
// write lock is exactly the dump's frontier. WAL truncation happens
// strictly after the manifest rename — a crash in between leaves extra
// records in the WAL whose replay is skipped via the manifest's coverage
// fields, never a manifest that over-promises coverage.
func (c *Coordinator) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: snapshot dir: %w", err)
	}
	var idBytes [8]byte
	if _, err := rand.Read(idBytes[:]); err != nil {
		return fmt.Errorf("shard: save id: %w", err)
	}
	id := hex.EncodeToString(idBytes[:])
	f, err := os.Create(snapshotFile(dir, id, 0))
	if err != nil {
		return fmt.Errorf("shard: snapshot: %w", err)
	}
	seq, err := c.srv.CheckpointDump(f)
	if err == nil {
		// The manifest switch below makes this file authoritative; its
		// data must hit the disk first or a crash could leave the
		// manifest pointing at a hollow snapshot.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("shard: snapshot: %w", err)
	}
	m := manifest{Version: manifestVersion, Shards: 1, Save: id}
	if c.wal != nil {
		m.JournalGen = c.journalGen
		m.CheckpointSeqs = []uint64{seq}
	}
	mf, err := json.Marshal(m)
	if err != nil {
		return err
	}
	fsys := c.fsys()
	journal.SyncDirFS(fsys, dir)
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := journal.WriteFileSyncFS(fsys, tmp, mf, 0o644); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	journal.SyncDirFS(fsys, dir)
	removeStaleSaves(dir, id)
	if c.wal != nil {
		if err := c.wal.Checkpoint(seq); err != nil {
			return fmt.Errorf("shard: truncating journal after checkpoint: %w", err)
		}
	}
	return nil
}

// fsys returns the coordinator's filesystem seam (OSFS when Recover
// never attached one).
func (c *Coordinator) fsys() journal.FS {
	if c.fs != nil {
		return c.fs
	}
	return journal.OSFS{}
}

// removeStaleSaves best-effort deletes shard files from generations other
// than keep — superseded saves, or leftovers of a crashed save.
func removeStaleSaves(dir, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	prefix := "shard-"
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".snapshot.json") {
			continue
		}
		if !strings.HasPrefix(name, prefix+keep+"-") {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// HasSnapshots reports whether dir holds a snapshot set (a readable
// manifest).
func HasSnapshots(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, manifestName))
	return err == nil
}

// readSnapshotManifest loads and validates dir's snapshot manifest.
func readSnapshotManifest(dir string) (*manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d unsupported (want %d)", m.Version, manifestVersion)
	}
	if m.Shards <= 0 {
		return nil, fmt.Errorf("shard: manifest reports %d shards", m.Shards)
	}
	return &m, nil
}

// RestoreBuilder returns a New-compatible build function that restores
// the replica from the snapshot set in dir, plus the shard count the set
// was saved with. A set saved by a build that kept one replica per shard
// holds that many full copies of the durable state; the replica restores
// from shard 0's. Caches start cold; sessions live in the journal, whose
// replay (Recover) brings them back.
func RestoreBuilder(dir string) (build func(shard int) (*contextrank.System, error), saved int, err error) {
	m, err := readSnapshotManifest(dir)
	if err != nil {
		return nil, 0, err
	}
	build = func(int) (*contextrank.System, error) {
		f, err := os.Open(snapshotFile(dir, m.Save, 0))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return contextrank.RestoreSystem(f)
	}
	return build, m.Shards, nil
}
