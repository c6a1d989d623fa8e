package journal

import (
	"io"
	"os"
)

// File is the slice of *os.File the journal writes through. Everything
// the WAL does to its file — append, fsync, torn-tail truncation, the
// open-time scan — goes through this interface, so a test (or the
// fault-injection layer) can interpose disk failures byte-for-byte:
// ENOSPC mid-batch, a failing fsync on the group-commit barrier, a torn
// short-write.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.Seeker
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// FS is the filesystem seam the journal opens, renames and removes files
// through. The zero-dependency default is OSFS; internal/faultinject
// wraps any FS with deterministic fault injection.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	// SyncDir fsyncs a directory, persisting renames/creations within it.
	SyncDir(dir string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

// OpenFile opens name via os.OpenFile.
func (OSFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename renames oldpath to newpath via os.Rename.
func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove removes name via os.Remove.
func (OSFS) Remove(name string) error { return os.Remove(name) }

// SyncDir fsyncs the directory.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// fsOrOS returns fsys, defaulting to the real filesystem.
func fsOrOS(fsys FS) FS {
	if fsys == nil {
		return OSFS{}
	}
	return fsys
}

// SyncDirFS best-effort fsyncs a directory through fsys, persisting renames
// and file creations within it (the metadata half of crash durability:
// without it, a power cut can undo a rename whose *file data* was fsynced).
// Errors are ignored — some filesystems/platforms reject directory fsync,
// and the fallback behavior (metadata flushed by the next journal-wide sync)
// degrades gracefully.
func SyncDirFS(fsys FS, dir string) {
	_ = fsOrOS(fsys).SyncDir(dir)
}

// WriteFileSyncFS writes data to path through fsys with an fsync before
// close — the durable sibling of os.WriteFile, for manifest files whose
// content must survive the rename that publishes them, through the seam so
// manifest switches are testable under injected disk faults.
func WriteFileSyncFS(fsys FS, path string, data []byte, perm os.FileMode) error {
	f, err := fsOrOS(fsys).OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
