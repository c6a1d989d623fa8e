package faultinject

import (
	"os"

	"repro/internal/serve/journal"
)

// FS wraps base (nil means the real filesystem) so every journal file
// operation consults in first. With no faults armed the wrapper adds one
// atomic load per call — Options.FS can stay armed in production behind
// a flag.
func FS(in *Injector, base journal.FS) journal.FS {
	if base == nil {
		base = journal.OSFS{}
	}
	return &faultFS{in: in, base: base}
}

type faultFS struct {
	in   *Injector
	base journal.FS
}

func (w *faultFS) OpenFile(name string, flag int, perm os.FileMode) (journal.File, error) {
	if err := w.in.FireFS(FSOpen, name); err != nil {
		return nil, err
	}
	f, err := w.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{in: w.in, f: f, name: name}, nil
}

func (w *faultFS) Rename(oldpath, newpath string) error {
	if err := w.in.FireFS(FSRename, oldpath); err != nil {
		return err
	}
	return w.base.Rename(oldpath, newpath)
}

func (w *faultFS) Remove(name string) error {
	if err := w.in.FireFS(FSRemove, name); err != nil {
		return err
	}
	return w.base.Remove(name)
}

func (w *faultFS) SyncDir(dir string) error {
	// Directory fsync is already best-effort everywhere it is called;
	// injecting here would test nothing the callers can observe.
	return w.base.SyncDir(dir)
}

type faultFile struct {
	in   *Injector
	f    journal.File
	name string
}

func (w *faultFile) Write(p []byte) (int, error) {
	allow, err := w.in.FireWrite(FSWrite, w.name, len(p))
	if err != nil {
		n := 0
		if allow > 0 {
			// Torn short-write: part of the buffer lands on disk before
			// the failure, exactly like a crash mid-write.
			n, _ = w.f.Write(p[:allow])
		}
		return n, err
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.in.FireFS(FSSync, w.name); err != nil {
		return err
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error                              { return w.f.Close() }
func (w *faultFile) Seek(off int64, whence int) (int64, error) { return w.f.Seek(off, whence) }
func (w *faultFile) Truncate(size int64) error                 { return w.f.Truncate(size) }
