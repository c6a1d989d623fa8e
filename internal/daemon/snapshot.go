package daemon

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
	header
	Save string `json:"save"` // generation id the shard files carry
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

// header opens both manifests (this one and the journal's).
type header struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// readManifest loads dir's manifest name into m, whose header is h, and
// checks the header against version. A missing manifest's error matches
// fs.ErrNotExist.
func readManifest(dir, name string, version int, m any, h *header) error {
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("daemon: reading %s: %w", name, err)
	}
	if err := json.Unmarshal(raw, m); err != nil {
		return fmt.Errorf("daemon: parsing %s: %w", name, err)
	}
	if h.Version != version {
		return fmt.Errorf("daemon: %s version %d unsupported (want %d)", name, h.Version, version)
	}
	if h.Shards <= 0 {
		return fmt.Errorf("daemon: %s reports %d shards", name, h.Shards)
	}
	return nil
}

// snapshotFile names shard i's file within save generation id.
func snapshotFile(dir, id string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%s-%03d.snapshot.json", id, i))
}

// Checkpoint dumps the replica's database (serve.Server.CheckpointDump:
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
// restored snapshot. A daemon without a journal simply starts
// sessionless, context being re-sensed (the paper's §5 position).
//
// With a journal attached the save truncates the WAL down to its live
// sessions (plus any checkpoint-exempt records): the manifest records the
// journal generation and the covered sequence. The journal submit of every
// mutation happens inside the critical section that applied it, so the
// sequence CheckpointDump returns under the facade write lock is exactly
// the dump's frontier. WAL truncation happens strictly after the manifest
// rename — a crash in between leaves extra records in the WAL whose replay
// is skipped via the manifest's coverage fields, never a manifest that
// over-promises coverage. The boot snapshot, the background checkpointer
// and Shutdown's final save all take this path.
func (d *Daemon) Checkpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("daemon: snapshot dir: %w", err)
	}
	id, err := newGen()
	if err != nil {
		return err
	}
	f, err := os.Create(snapshotFile(dir, id, 0))
	if err != nil {
		return fmt.Errorf("daemon: snapshot: %w", err)
	}
	seq, err := d.Server.CheckpointDump(f)
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
		return fmt.Errorf("daemon: snapshot: %w", err)
	}
	m := manifest{header: header{manifestVersion, 1}, Save: id}
	if d.wal != nil {
		m.JournalGen = d.journalGen
		m.CheckpointSeqs = []uint64{seq}
	}
	if err := d.publish(dir, manifestName, m); err != nil {
		return err
	}
	removeStale(dir, "shard-", ".snapshot.json", id)
	if d.wal != nil {
		if err := d.wal.Checkpoint(seq); err != nil {
			return fmt.Errorf("daemon: truncating journal after checkpoint: %w", err)
		}
	}
	return nil
}

// newGen returns a fresh generation id for a save or a journal.
func newGen() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("daemon: generation id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// publish makes v dir's manifest name, switched in by atomic rename: the
// files it points at must be synced already, so what remains is metadata —
// the directory entries, the manifest's *content* (WriteFileSyncFS; a bare
// os.WriteFile could leave a zero-length manifest after a power cut,
// bricking every later boot) and the rename itself. Every step goes
// through the filesystem seam, so injected faults reach it.
func (d *Daemon) publish(dir, name string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	journal.SyncDirFS(d.fs, dir)
	tmp := filepath.Join(dir, name+".tmp")
	if err = journal.WriteFileSyncFS(d.fs, tmp, raw, 0o644); err == nil {
		err = d.fs.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		return fmt.Errorf("daemon: %s: %w", name, err)
	}
	journal.SyncDirFS(d.fs, dir)
	return nil
}

// removeStale best-effort deletes dir's files named prefix…suffix of
// generations other than keep: superseded ones, or leftovers of a crash
// before a manifest switch.
func removeStale(dir, prefix, suffix, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) && !strings.HasPrefix(name, prefix+keep+"-") {
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

// Restorer validates the snapshot set in dir and returns a function that
// restores the replica from it, plus the shard count the set was saved
// with. A set saved by a build that kept one replica per shard holds that
// many full copies of the durable state; the replica restores from shard
// 0's. Caches start cold; sessions live in the journal, whose replay
// (Recover) brings them back.
func Restorer(dir string) (restore func() (*contextrank.System, error), saved int, err error) {
	var m manifest
	if err := readManifest(dir, manifestName, manifestVersion, &m, &m.header); err != nil {
		return nil, 0, err
	}
	restore = func() (*contextrank.System, error) {
		f, err := os.Open(snapshotFile(dir, m.Save, 0))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return contextrank.RestoreSystem(f)
	}
	return restore, m.Shards, nil
}
