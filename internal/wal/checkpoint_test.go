package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
)

// isSnapshotFile reports whether path names a snapshot or its temp file.
func isSnapshotFile(path string) bool { return strings.HasPrefix(filepath.Base(path), snapPrefix) }

// parkSnapshotSync arms ffs so that the next fsync of a snapshot file
// blocks until release is called, closing parked once one is blocked;
// every other fsync passes. release is idempotent and also runs at cleanup.
func parkSnapshotSync(t *testing.T, ffs *FaultFS) (parked <-chan struct{}, release func()) {
	t.Helper()
	p, gate := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	ffs.SetSyncFault(func(name string) error {
		if isSnapshotFile(name) {
			parkOnce.Do(func() { close(p) })
			<-gate
		}
		return nil
	})
	release = func() {
		releaseOnce.Do(func() {
			ffs.SetSyncFault(nil)
			close(gate)
		})
	}
	t.Cleanup(release)
	return p, release
}

// checkpointStore opens a store on a fresh directory through ffs that
// checkpoints every two records, and arms a snapshot fsync that parks.
func checkpointStore(t *testing.T) (s *Store, dir string, parked <-chan struct{}, release func()) {
	t.Helper()
	ffs := NewFaultFS(nil)
	dir = t.TempDir()
	s = mustOpen(t, Options{Dir: dir, FS: ffs, Fsync: FsyncBatch, SnapshotEvery: 2, Registry: obs.NewRegistry()})
	parked, release = parkSnapshotSync(t, ffs)
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)
	mustMutate(t, s, []db.Fact{fact("R", 1, "c", "d")}, nil) // v2: the checkpoint falls due
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the checkpoint never reached its snapshot fsync")
	}
	return s, dir, parked, release
}

// reopenAt reopens dir and checks it holds version want with n facts.
func reopenAt(t *testing.T, dir string, want uint64, n int) {
	t.Helper()
	s, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	if d, v := s.DB(); v != want || d.Len() != n {
		t.Fatalf("reopened at version %d with %d facts, want %d with %d", v, d.Len(), want, n)
	}
}

// TestBackgroundCheckpointKeepsCommitsMoving: while a checkpoint is parked
// in its snapshot fsync, a mutation still commits, and its record survives
// a reopen; so does a crash copy of the directory taken mid-checkpoint.
func TestBackgroundCheckpointKeepsCommitsMoving(t *testing.T) {
	s, dir, _, release := checkpointStore(t)
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Mutate([]db.Fact{fact("R", 1, "e", "f")}, nil, -1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Mutate during the checkpoint: %v", err)
		}
	case <-time.After(5 * time.Second):
		release()
		t.Fatal("a mutation waited for the checkpoint in flight")
	}
	reopenAt(t, cloneDir(t, dir), 3, 3) // a crash while the snapshot is unsynced
	release()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	reopenAt(t, dir, 3, 3)
}

// TestBackgroundCheckpointCloseWaits: Close returns only once the
// checkpoint in flight has ended, leaving its snapshot in place.
func TestBackgroundCheckpointCloseWaits(t *testing.T) {
	s, dir, _, release := checkpointStore(t)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while the checkpoint was parked")
	case <-time.After(100 * time.Millisecond):
	}
	release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	_, snaps, err := listSegments(OSFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || snaps[0] != 2 {
		t.Fatalf("snapshots after Close: %v, want the checkpoint at v2 alone", snaps)
	}
	reopenAt(t, dir, 2, 2)
}

// TestBackgroundCheckpointsNeverOverlap: under concurrent writers that
// make a checkpoint due on every commit, no checkpoint starts before the
// last one has compacted, checkpoints that fall due meanwhile are taken
// later, and the store reopens with every acknowledged write.
func TestBackgroundCheckpointsNeverOverlap(t *testing.T) {
	ffs := NewFaultFS(nil)
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, FS: ffs, Fsync: FsyncBatch, SnapshotEvery: 1, Registry: obs.NewRegistry()})
	// A checkpoint runs from its temp file's creation to its second
	// directory fsync (after the rename, then after compaction).
	var mu sync.Mutex
	var active, overlapped bool
	var syncs, started int
	ffs.SetCreateFault(func(name string) error {
		if isSnapshotFile(name) {
			mu.Lock()
			overlapped = overlapped || active
			active, syncs = true, 0
			started++
			mu.Unlock()
		}
		return nil
	})
	ffs.SetSyncFault(func(name string) error {
		if isSnapshotFile(name) {
			time.Sleep(5 * time.Millisecond) // a slow disk, so commits outpace checkpoints
		}
		return nil
	})
	ffs.SetSyncDirFault(func(string) error {
		mu.Lock()
		if active {
			if syncs++; syncs == 2 {
				active = false
			}
		}
		mu.Unlock()
		return nil
	})
	const writers, each = 4, 50
	var wg sync.WaitGroup
	var failed atomic.Int32
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, _, err := s.Mutate([]db.Fact{fact("R", 1, fmt.Sprintf("w%d_%d", w, i), "v")}, nil, -1); err != nil {
					failed.Add(1)
				}
				time.Sleep(500 * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if failed.Load() > 0 {
		t.Fatalf("%d mutations failed", failed.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	if overlapped {
		t.Fatal("a checkpoint started while another was in flight")
	}
	if started < 2 || started >= writers*each {
		t.Fatalf("%d checkpoints for %d commits due every commit, want several, fewer than the commits", started, writers*each)
	}
	reopenAt(t, dir, writers*each, writers*each)
}

// TestBackgroundCheckpointFaultAtEachStep: a fault at any step of a
// background checkpoint (temp-file create, write, fsync, rename, directory
// fsync, compaction) is counted or ignored, never fails a write, and
// leaves a store that reopens at the last acknowledged version.
func TestBackgroundCheckpointFaultAtEachStep(t *testing.T) {
	errDisk := errors.New("injected disk fault")
	steps := []struct {
		name    string
		counted bool // the checkpoint is counted as failed and skipped
		arm     func(ffs *FaultFS)
	}{
		{"create", true, func(ffs *FaultFS) {
			ffs.SetCreateFault(func(name string) error {
				if isSnapshotFile(name) {
					return errDisk
				}
				return nil
			})
		}},
		{"write", true, func(ffs *FaultFS) {
			ffs.SetWriteFault(func(name string, p []byte) (int, error) {
				if isSnapshotFile(name) {
					return len(p) / 2, errDisk
				}
				return len(p), nil
			})
		}},
		{"fsync", true, func(ffs *FaultFS) {
			ffs.SetSyncFault(func(name string) error {
				if isSnapshotFile(name) {
					return errDisk
				}
				return nil
			})
		}},
		{"rename", true, func(ffs *FaultFS) {
			ffs.SetRenameFault(func(_, newname string) error {
				if isSnapshotFile(newname) {
					return errDisk
				}
				return nil
			})
		}},
		{"dir-fsync", true, func(ffs *FaultFS) {
			// Only the directory fsync right after a snapshot's rename
			// fails: a failed rotation would degrade the store, which is
			// not the checkpoint's doing.
			var renamed atomic.Bool
			ffs.SetRenameFault(func(_, newname string) error {
				renamed.Store(isSnapshotFile(newname))
				return nil
			})
			ffs.SetSyncDirFault(func(string) error {
				if renamed.CompareAndSwap(true, false) {
					return errDisk
				}
				return nil
			})
		}},
		{"compaction", false, func(ffs *FaultFS) {
			ffs.SetRemoveFault(func(string) error { return errDisk })
		}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			ffs := NewFaultFS(nil)
			dir := t.TempDir()
			reg := obs.NewRegistry()
			s := mustOpen(t, Options{Dir: dir, FS: ffs, Fsync: FsyncBatch, SnapshotEvery: 2, Registry: reg})
			step.arm(ffs)
			for i := 0; i < 5; i++ {
				mustMutate(t, s, []db.Fact{fact("R", 1, fmt.Sprintf("k%d", i), "v")}, nil)
				settleCheckpoint(s)
			}
			if ro, err := s.ReadOnly(); ro {
				t.Fatalf("a checkpoint fault degraded the store: %v", err)
			}
			failures := reg.Counter(metricWALErrors, obs.L{K: "op", V: "snapshot"}).Value()
			if step.counted && failures != 2 || !step.counted && failures != 0 {
				t.Errorf("%d checkpoint failures counted for two faulted checkpoints", failures)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			reopenAt(t, dir, 5, 5)
		})
	}
}
