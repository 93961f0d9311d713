package wal

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the filesystem surface the WAL and Store drive. Production uses
// OSFS; robustness tests use FaultFS to fail any single operation — a short
// write, an fsync error, a failed rename — deterministically, and to prove
// the store degrades to read-only instead of corrupting state or dying.
type FS interface {
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// ReadDir lists the file names (not full paths) in dir, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates dir and parents.
	MkdirAll(dir string) error
	// Truncate cuts a file to size bytes (torn-tail repair on recovery).
	Truncate(name string, size int64) error
	// SyncDir fsyncs a directory, making renames and removals durable.
	SyncDir(dir string) error
}

// File is the open-file surface: sequential reads for replay, appends and
// fsync for the write path.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
}

// OSFS is the production FS backed by the os package.
type OSFS struct{}

func (OSFS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
}

func (OSFS) Open(name string) (File, error) { return os.Open(name) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }
func (OSFS) Remove(name string) error             { return os.Remove(name) }
func (OSFS) MkdirAll(dir string) error            { return os.MkdirAll(dir, 0o755) }
func (OSFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}

func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(filepath.Clean(dir))
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// FaultFS wraps an FS with injectable faults. Each hook, when non-nil, is
// consulted before the underlying operation; returning a non-nil error
// fails the operation without touching the base FS. OnWrite may also
// request a short write: it returns how many bytes to pass through before
// the error (0 ≤ allow ≤ len(p)).
//
// Hooks run under the FaultFS mutex, so tests may mutate the hook fields
// from the test goroutine via Set* while the store runs.
type FaultFS struct {
	Base FS

	mu       sync.Mutex
	onWrite  func(name string, p []byte) (allow int, err error)
	onSync   func(name string) error
	onCreate func(name string) error
	onRename func(oldname, newname string) error
	onRemove func(name string) error
	onDir    func(dir string) error
}

// NewFaultFS wraps base (defaulting to OSFS) with no faults armed.
func NewFaultFS(base FS) *FaultFS {
	if base == nil {
		base = OSFS{}
	}
	return &FaultFS{Base: base}
}

// SetWriteFault arms (or with nil, disarms) the write hook.
func (f *FaultFS) SetWriteFault(fn func(name string, p []byte) (int, error)) {
	f.mu.Lock()
	f.onWrite = fn
	f.mu.Unlock()
}

// SetSyncFault arms (or with nil, disarms) the fsync hook.
func (f *FaultFS) SetSyncFault(fn func(name string) error) {
	f.mu.Lock()
	f.onSync = fn
	f.mu.Unlock()
}

// SetCreateFault arms (or with nil, disarms) the create hook.
func (f *FaultFS) SetCreateFault(fn func(name string) error) {
	f.mu.Lock()
	f.onCreate = fn
	f.mu.Unlock()
}

// SetRenameFault arms (or with nil, disarms) the rename hook.
func (f *FaultFS) SetRenameFault(fn func(oldname, newname string) error) {
	f.mu.Lock()
	f.onRename = fn
	f.mu.Unlock()
}

// SetRemoveFault arms (or with nil, disarms) the remove hook.
func (f *FaultFS) SetRemoveFault(fn func(name string) error) {
	f.mu.Lock()
	f.onRemove = fn
	f.mu.Unlock()
}

// SetSyncDirFault arms (or with nil, disarms) the directory-fsync hook.
func (f *FaultFS) SetSyncDirFault(fn func(dir string) error) {
	f.mu.Lock()
	f.onDir = fn
	f.mu.Unlock()
}

func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	hook := f.onCreate
	f.mu.Unlock()
	if hook != nil {
		if err := hook(name); err != nil {
			return nil, err
		}
	}
	file, err := f.Base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, f: file}, nil
}

func (f *FaultFS) Open(name string) (File, error)         { return f.Base.Open(name) }
func (f *FaultFS) ReadDir(dir string) ([]string, error)   { return f.Base.ReadDir(dir) }
func (f *FaultFS) MkdirAll(dir string) error              { return f.Base.MkdirAll(dir) }
func (f *FaultFS) Truncate(name string, size int64) error { return f.Base.Truncate(name, size) }

func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	hook := f.onDir
	f.mu.Unlock()
	if hook != nil {
		if err := hook(dir); err != nil {
			return err
		}
	}
	return f.Base.SyncDir(dir)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	hook := f.onRename
	f.mu.Unlock()
	if hook != nil {
		if err := hook(oldname, newname); err != nil {
			return err
		}
	}
	return f.Base.Rename(oldname, newname)
}

func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	hook := f.onRemove
	f.mu.Unlock()
	if hook != nil {
		if err := hook(name); err != nil {
			return err
		}
	}
	return f.Base.Remove(name)
}

// faultFile intercepts writes and fsyncs on files created through FaultFS.
type faultFile struct {
	fs   *FaultFS
	name string
	f    File
}

func (w *faultFile) Read(p []byte) (int, error) { return w.f.Read(p) }
func (w *faultFile) Close() error               { return w.f.Close() }

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	hook := w.fs.onWrite
	w.fs.mu.Unlock()
	if hook != nil {
		allow, err := hook(w.name, p)
		if err != nil {
			if allow < 0 {
				allow = 0
			}
			if allow > len(p) {
				allow = len(p)
			}
			n := 0
			if allow > 0 {
				// A short write persists a torn record — exactly the shape
				// crash recovery must truncate away.
				n, _ = w.f.Write(p[:allow])
			}
			return n, err
		}
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	w.fs.mu.Lock()
	hook := w.fs.onSync
	w.fs.mu.Unlock()
	if hook != nil {
		if err := hook(w.name); err != nil {
			return err
		}
	}
	return w.f.Sync()
}
