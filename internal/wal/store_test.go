package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
)

func fact(rel string, keyLen int, args ...string) db.Fact {
	return db.Fact{Rel: rel, KeyLen: keyLen, Args: args}
}

// testOpts returns store options on a fresh temp dir with an isolated
// registry, fsyncing always so every committed record is on disk the
// moment Mutate returns (the crash matrix depends on that).
func testOpts(t *testing.T) Options {
	t.Helper()
	return Options{
		Dir:      t.TempDir(),
		Fsync:    FsyncAlways,
		Registry: obs.NewRegistry(),
	}
}

func mustOpen(t *testing.T, opts Options) *Store {
	t.Helper()
	s, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustMutate(t *testing.T, s *Store, ins, del []db.Fact) uint64 {
	t.Helper()
	v, _, err := s.Mutate(ins, del, -1)
	if err != nil {
		t.Fatalf("Mutate: %v", err)
	}
	return v
}

func TestStoreInsertDeleteReopen(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)

	if _, v := s.DB(); v != 0 {
		t.Fatalf("fresh store at version %d, want 0", v)
	}
	v1 := mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b"), fact("R", 1, "a", "b2")}, nil)
	v2 := mustMutate(t, s, []db.Fact{fact("S", 1, "b", "c")}, nil)
	v3 := mustMutate(t, s, nil, []db.Fact{fact("R", 1, "a", "b2")})
	if v1 != 1 || v2 != 2 || v3 != 3 {
		t.Fatalf("versions %d,%d,%d, want 1,2,3", v1, v2, v3)
	}
	want := db.MustParse(`R(a | b) S(b | c)`)
	if d, v := s.DB(); v != 3 || !d.Equal(want) {
		t.Fatalf("state at v%d = %s, want %s", v, d, want)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, opts)
	if d, v := s2.DB(); v != 3 || !d.Equal(want) {
		t.Fatalf("reopened state at v%d = %s, want %s", v, d, want)
	}
}

func TestStoreNoOpMutations(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	f := fact("R", 1, "a", "b")
	mustMutate(t, s, []db.Fact{f}, nil)

	// Re-inserting a present fact and deleting an absent one change nothing:
	// no record, no version bump.
	v, applied, err := s.Mutate([]db.Fact{f}, []db.Fact{fact("R", 1, "zz", "q")}, -1)
	if err != nil || v != 1 || applied != 0 {
		t.Fatalf("no-op: v=%d applied=%d err=%v, want v=1 applied=0", v, applied, err)
	}
	if got := opts.Registry.Counter(metricAppends).Value(); got != 1 {
		t.Fatalf("appends = %d after no-op, want 1", got)
	}
}

func TestStoreCAS(t *testing.T) {
	s := mustOpen(t, testOpts(t))
	if _, _, err := s.Mutate([]db.Fact{fact("R", 1, "a", "b")}, nil, 5); !errors.Is(err, ErrConflict) {
		t.Fatalf("stale CAS: err = %v, want ErrConflict", err)
	}
	var ce *ConflictError
	_, _, err := s.Mutate([]db.Fact{fact("R", 1, "a", "b")}, nil, 7)
	if !errors.As(err, &ce) || ce.Want != 7 || ce.Have != 0 {
		t.Fatalf("conflict detail = %v", err)
	}
	if v, _, err := s.Mutate([]db.Fact{fact("R", 1, "a", "b")}, nil, 0); err != nil || v != 1 {
		t.Fatalf("matching CAS: v=%d err=%v", v, err)
	}
	// The same CAS again is now stale: the version moved.
	if _, _, err := s.Mutate([]db.Fact{fact("R", 1, "a", "c")}, nil, 0); !errors.Is(err, ErrConflict) {
		t.Fatalf("replayed CAS: err = %v, want ErrConflict", err)
	}
	if d, v := s.DB(); v != 1 || d.Len() != 1 {
		t.Fatalf("state after conflicts: v=%d len=%d", v, d.Len())
	}
}

func TestStoreValidationRejected(t *testing.T) {
	s := mustOpen(t, testOpts(t))
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)

	cases := []db.Fact{
		fact("R", 1, "x\x00y", "b"),                // NUL byte
		fact("R", 2, "a", "b", "c"),                // signature conflict with stored R
		{Rel: "T", KeyLen: 3, Args: []string{"a"}}, // key longer than arity
	}
	for i, bad := range cases {
		if _, _, err := s.Mutate([]db.Fact{bad}, nil, -1); err == nil {
			t.Fatalf("case %d: invalid fact accepted", i)
		}
	}
	// Conflicting signatures for a NEW relation within one request.
	_, _, err := s.Mutate([]db.Fact{fact("T", 1, "a", "b"), fact("T", 2, "a", "b", "c")}, nil, -1)
	if err == nil {
		t.Fatal("in-request signature conflict accepted")
	}
	if d, v := s.DB(); v != 1 || d.Len() != 1 {
		t.Fatalf("rejected mutations moved the store: v=%d len=%d", v, d.Len())
	}
}

func TestStoreInsertThenDeleteSameRequest(t *testing.T) {
	s := mustOpen(t, testOpts(t))
	f := fact("R", 1, "a", "b")
	v, applied, err := s.Mutate([]db.Fact{f}, []db.Fact{f}, -1)
	if err != nil || v != 1 || applied != 2 {
		t.Fatalf("insert+delete: v=%d applied=%d err=%v", v, applied, err)
	}
	if d, _ := s.DB(); d.Len() != 0 {
		t.Fatalf("fact survived its own deletion: %s", d)
	}
	// And the round-trip through the WAL replays cleanly.
	s.Close()
	s2 := mustOpen(t, Options{Dir: s.opts.Dir, Registry: obs.NewRegistry()})
	if d, v := s2.DB(); v != 1 || d.Len() != 0 {
		t.Fatalf("reopen: v=%d len=%d", v, d.Len())
	}
}

// TestStoreDeleteMatchesWholeFact: a delete matches a stored fact, and the
// pending insert it would cancel, on the whole fact, key length included,
// which Fact.ID leaves out. Deleting R(a, b) from a store holding R(a | b)
// is a no-op, an insert of R(c | d) beside a delete of R(c, d) inserts,
// and the log replays to the state it acknowledged.
func TestStoreDeleteMatchesWholeFact(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	v1 := mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)

	v, applied, err := s.Mutate(nil, []db.Fact{fact("R", 2, "a", "b")}, -1)
	if err != nil || v != v1 || applied != 0 {
		t.Fatalf("delete of R(a, b): v=%d applied=%d err=%v, want v=%d applied=0", v, applied, err, v1)
	}
	v, applied, err = s.Mutate([]db.Fact{fact("R", 1, "c", "d")}, []db.Fact{fact("R", 2, "c", "d")}, -1)
	if err != nil || v != v1+1 || applied != 1 {
		t.Fatalf("insert R(c | d) + delete R(c, d): v=%d applied=%d err=%v, want v=%d applied=1", v, applied, err, v1+1)
	}
	want := db.MustParse("R(a | b) R(c | d)")
	d, _ := s.DB()
	if !d.Equal(want) || d.String() != want.String() || len(d.FactsOf("R")) != 2 {
		t.Fatalf("state %q (FactsOf(R) %v), want %q", d, d.FactsOf("R"), want)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s2 := mustOpen(t, opts)
	if d, v := s2.DB(); v != v1+1 || d.String() != want.String() {
		t.Fatalf("reopened state at v%d = %q, want %q", v, d, want)
	}
	if v := mustMutate(t, s2, nil, []db.Fact{fact("R", 1, "a", "b")}); v != v1+2 {
		t.Fatalf("delete of R(a | b) at v%d, want v%d", v, v1+2)
	}
	if d, _ := s2.DB(); d.String() != "R(c | d)\n" {
		t.Fatalf("after deleting R(a | b): %q", d)
	}
}

func TestStoreGroupCommit(t *testing.T) {
	s := mustOpen(t, Options{Dir: t.TempDir(), Fsync: FsyncBatch, Registry: obs.NewRegistry()})
	const n = 32
	versions := make([]uint64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := s.Mutate([]db.Fact{fact("R", 1, fmt.Sprintf("k%d", i), "v")}, nil, -1)
			if err != nil {
				t.Errorf("mutate %d: %v", i, err)
			}
			versions[i] = v
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for _, v := range versions {
		if v < 1 || v > n || seen[v] {
			t.Fatalf("versions not a permutation of 1..%d: %v", n, versions)
		}
		seen[v] = true
	}
	d, v := s.DB()
	if v != n || d.Len() != n {
		t.Fatalf("final v=%d len=%d, want %d", v, d.Len(), n)
	}
	s.Close()
	s2 := mustOpen(t, Options{Dir: s.opts.Dir, Registry: obs.NewRegistry()})
	if d2, v2 := s2.DB(); v2 != n || !d2.Equal(d) {
		t.Fatalf("reopen after group commit: v=%d", v2)
	}
}

func TestStoreSeed(t *testing.T) {
	seed := db.MustParse(`R(a | b) R(a | b2) S(x | y)`)
	opts := testOpts(t)
	opts.Seed = seed
	s := mustOpen(t, opts)
	if d, v := s.DB(); v != 0 || !d.Equal(seed) {
		t.Fatalf("seeded store: v=%d", v)
	}
	mustMutate(t, s, []db.Fact{fact("S", 1, "x2", "y2")}, nil)
	s.Close()

	// The seed must be durable: reopening WITHOUT the seed option recovers it.
	s2 := mustOpen(t, Options{Dir: opts.Dir, Registry: obs.NewRegistry()})
	want := seed.Clone()
	if err := want.Add(fact("S", 1, "x2", "y2")); err != nil {
		t.Fatal(err)
	}
	if d, v := s2.DB(); v != 1 || !d.Equal(want) {
		t.Fatalf("reopen lost seed: v=%d %s", v, d)
	}
}

// TestStoreReleasesSeed: Open keeps no reference to its seed, so the
// caller's database and its interned view can be collected once the
// store's first write replaces the snapshot that shares them. Until then
// the first snapshot shares the seed's view instead of building its own.
func TestStoreReleasesSeed(t *testing.T) {
	seed := db.MustParse(`R(a | b) R(a | b2) S(x | y)`)
	opts := testOpts(t)
	opts.Seed = seed
	s := mustOpen(t, opts)
	if s.opts.Seed != nil {
		t.Fatal("the store holds a reference to its seed after Open")
	}
	if d, _ := s.DB(); d.Interned() != seed.Interned() {
		t.Fatal("the first snapshot does not share the seed's interned view")
	}
}

// mutationScript is the fixed write history the crash tests replay.
func mutationScript() []struct{ ins, del []db.Fact } {
	return []struct{ ins, del []db.Fact }{
		{ins: []db.Fact{fact("R", 1, "a", "b"), fact("R", 1, "a", "b2")}},
		{ins: []db.Fact{fact("S", 1, "b", "c")}},
		{ins: []db.Fact{fact("R", 1, "a2", "b"), fact("S", 1, "b2", "c2")}},
		{del: []db.Fact{fact("R", 1, "a", "b2")}},
		{ins: []db.Fact{fact("U", 2, "u", "v", "w")}},
		{del: []db.Fact{fact("S", 1, "b2", "c2")}, ins: []db.Fact{fact("S", 1, "b3", "c3")}},
	}
}

// writeHistory runs the script against a fresh store in dir and returns
// the expected database state after every prefix of mutations
// (states[i] = state at version i).
func writeHistory(t *testing.T, dir string) (states []*db.DB) {
	t.Helper()
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	states = append(states, db.New())
	cur := db.New()
	for _, m := range mutationScript() {
		mustMutate(t, s, m.ins, m.del)
		for _, f := range m.ins {
			if err := cur.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range m.del {
			cur.Remove(f)
		}
		states = append(states, cur.Clone())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return states
}

// walSegments returns the segment file names in dir, sorted.
func walSegments(t *testing.T, dir string) []string {
	t.Helper()
	names, err := (OSFS{}).ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, n := range names {
		if _, ok := parseSeq(n, segPrefix, segSuffix); ok {
			segs = append(segs, n)
		}
	}
	return segs
}

// cloneDir copies every file of src into a fresh temp dir.
func cloneDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	names, err := (OSFS{}).ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		data, err := os.ReadFile(filepath.Join(src, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, n), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recordBoundaries scans a segment file and returns the byte offsets at
// which each record ends (cumulative clean prefixes), starting with 0.
func recordBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := []int64{0}
	var off int64
	_, rerr := ReadRecords(bytes.NewReader(data), func(p []byte) error {
		off += int64(headerSize + len(p))
		ends = append(ends, off)
		return nil
	})
	if rerr != nil {
		t.Fatalf("history segment not clean: %v", rerr)
	}
	return ends
}

// TestCrashRecoveryEveryPrefix is the acceptance matrix: the WAL is cut at
// EVERY byte offset — simulating a crash mid-append — and recovery must
// come back at exactly the version whose records fit completely, with the
// database equal to the from-scratch state at that version.
func TestCrashRecoveryEveryPrefix(t *testing.T) {
	histDir := t.TempDir()
	states := writeHistory(t, histDir)
	segs := walSegments(t, histDir)
	if len(segs) != 1 {
		t.Fatalf("history produced %d segments, want 1", len(segs))
	}
	segPath := filepath.Join(histDir, segs[0])
	ends := recordBoundaries(t, segPath)
	if len(ends) != len(states) {
		t.Fatalf("%d record boundaries for %d states", len(ends), len(states))
	}
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	versionAt := func(cut int64) int {
		v := 0
		for i, e := range ends {
			if e <= cut {
				v = i
			}
		}
		return v
	}
	for cut := int64(0); cut <= int64(len(full)); cut++ {
		dir := cloneDir(t, histDir)
		if err := os.Truncate(filepath.Join(dir, segs[0]), cut); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		wantV := versionAt(cut)
		d, v := s.DB()
		if int(v) != wantV || !d.Equal(states[wantV]) {
			t.Fatalf("cut %d: recovered v=%d (want %d), db=%s want %s", cut, v, wantV, d, states[wantV])
		}
		if ro, _ := s.ReadOnly(); ro {
			t.Fatalf("cut %d: recovered store is read-only", cut)
		}
		// Recovery must be idempotent: a second crashless reopen lands in
		// the identical state.
		s.Close()
		s2, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if d2, v2 := s2.DB(); v2 != v || !d2.Equal(d) {
			t.Fatalf("cut %d: reopen diverged (v %d→%d)", cut, v, v2)
		}
		s2.Close()
	}
}

// TestCrashRecoveryCorruptByte flips each byte of the final segment in
// turn: recovery treats the damage as a torn tail — state rolls back to
// the last record before the flip and the store stays writable.
func TestCrashRecoveryCorruptByte(t *testing.T) {
	histDir := t.TempDir()
	states := writeHistory(t, histDir)
	segs := walSegments(t, histDir)
	segPath := filepath.Join(histDir, segs[0])
	ends := recordBoundaries(t, segPath)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	recordOf := func(off int64) int {
		v := 0
		for i := 0; i < len(ends)-1; i++ {
			if ends[i] <= off {
				v = i
			}
		}
		return v
	}
	// Every offset is covered by the framing matrix in record_test.go; here
	// a stride keeps the full-store recovery loop fast while still hitting
	// every record and every field type (magic, length, CRC, payload).
	for off := int64(0); off < int64(len(full)); off += 3 {
		dir := cloneDir(t, histDir)
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x5A
		if err := os.WriteFile(filepath.Join(dir, segs[0]), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("offset %d: Open: %v", off, err)
		}
		wantV := recordOf(off)
		d, v := s.DB()
		if int(v) != wantV || !d.Equal(states[wantV]) {
			t.Fatalf("offset %d: recovered v=%d want %d", off, v, wantV)
		}
		// The store remains writable after truncating the damage.
		if _, _, err := s.Mutate([]db.Fact{fact("W", 1, "post", "crash")}, nil, -1); err != nil {
			t.Fatalf("offset %d: mutate after recovery: %v", off, err)
		}
		s.Close()
	}
}

// TestCorruptionInNonFinalSegmentFailsOpen: by the rotation invariant a
// torn tail can only exist in the newest segment, so damage in an older
// one is real corruption and recovery must refuse to guess.
func TestCorruptionInNonFinalSegmentFailsOpen(t *testing.T) {
	dir := t.TempDir()
	// SegmentBytes=1 rotates on every append after the first: each record
	// lands in its own segment.
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, SegmentBytes: 1, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	for i := 0; i < 4; i++ {
		mustMutate(t, s, []db.Fact{fact("R", 1, fmt.Sprintf("k%d", i), "v")}, nil)
	}
	s.Close()
	segs := walSegments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, got %v", segs)
	}
	// Damage the first segment that holds a record.
	var target string
	for _, name := range segs[:len(segs)-1] {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > 0 {
			target = name
			break
		}
	}
	if target == "" {
		t.Fatal("no non-final segment with content")
	}
	data, err := os.ReadFile(filepath.Join(dir, target))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, target), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()}); err == nil {
		t.Fatal("Open succeeded over corruption in a non-final segment")
	}
}

// TestVersionGapFailsOpen: a corrupt snapshot whose WAL records begin past
// version 1 leaves an unfillable hole; Open must fail rather than serve a
// silently inconsistent database.
func TestVersionGapFailsOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)
	mustMutate(t, s, []db.Fact{fact("R", 1, "a2", "b")}, nil)
	if err := s.Checkpoint(); err != nil { // snapshot at v2, old segments compacted
		t.Fatal(err)
	}
	mustMutate(t, s, []db.Fact{fact("R", 1, "a3", "b")}, nil) // v3, in the WAL only
	s.Close()

	// Destroy every snapshot: replay would have to start at v0 but the
	// surviving records begin at v3.
	names, err := (OSFS{}).ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	removed := 0
	for _, n := range names {
		if _, ok := parseSeq(n, snapPrefix, snapSuffix); ok {
			if err := os.Remove(filepath.Join(dir, n)); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed == 0 {
		t.Fatal("no snapshots to remove; test setup wrong")
	}
	if _, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()}); err == nil {
		t.Fatal("Open succeeded over a version gap")
	}
}

// TestCorruptSnapshotFallsBack: when the newest checkpoint is damaged but
// the full WAL survives, recovery replays from scratch.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)
	mustMutate(t, s, []db.Fact{fact("S", 1, "b", "c")}, nil)
	s.Close()

	// The only snapshot is the empty initial one at v0; corrupt it.
	names, err := (OSFS{}).ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, ok := parseSeq(n, snapPrefix, snapSuffix); ok {
			data, err := os.ReadFile(filepath.Join(dir, n))
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0xFF
			if err := os.WriteFile(filepath.Join(dir, n), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	s2, err := Open(Options{Dir: dir, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatalf("Open with corrupt snapshot: %v", err)
	}
	want := db.MustParse(`R(a | b) S(b | c)`)
	if d, v := s2.DB(); v != 2 || !d.Equal(want) {
		t.Fatalf("fallback recovery: v=%d db=%s", v, d)
	}
	s2.Close()
}

// TestSnapshotFileIsOneRecord: the snapshot file, framed in place behind
// the header's reserved room, is byte for byte the record AppendRecord
// makes of its payload: the kind, the version and the encoded database.
func TestSnapshotFileIsOneRecord(t *testing.T) {
	opts := testOpts(t)
	s := mustOpen(t, opts)
	v := mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b"), fact("R", 1, "a", "c"), fact("S", 1, "b", "d")}, nil)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(opts.Dir, snapName(v)))
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	if len(data) < headerSize {
		t.Fatalf("snapshot file holds %d bytes", len(data))
	}
	payload := data[headerSize:]
	if !bytes.Equal(data, AppendRecord(nil, payload)) {
		t.Fatalf("snapshot file is not the record of its payload:\n got %x\nwant %x", data[:headerSize], AppendRecord(nil, payload)[:headerSize])
	}
	d, _ := s.DB()
	want := []byte{kindSnapshot}
	want = binary.LittleEndian.AppendUint64(want, v)
	var enc bytes.Buffer
	if err := d.WriteSnapshot(&enc); err != nil {
		t.Fatal(err)
	}
	if want = append(want, enc.Bytes()...); !bytes.Equal(payload, want) {
		t.Fatalf("snapshot payload is %d bytes, want the %d of kind, version %d and the encoded database", len(payload), len(want), v)
	}
}

func TestStoreCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, Fsync: FsyncAlways, SnapshotEvery: 3, Registry: obs.NewRegistry()})
	for i := 0; i < 7; i++ {
		mustMutate(t, s, []db.Fact{fact("R", 1, fmt.Sprintf("k%d", i), "v")}, nil)
		settleCheckpoint(s) // the checkpoint a commit starts runs in the background
	}
	// Checkpoints fired at v3 and v6; compaction leaves one snapshot and
	// one live segment.
	names, err := (OSFS{}).ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, segs int
	for _, n := range names {
		if v, ok := parseSeq(n, snapPrefix, snapSuffix); ok {
			snaps++
			if v != 6 {
				t.Fatalf("surviving snapshot at v%d, want 6", v)
			}
		}
		if _, ok := parseSeq(n, segPrefix, segSuffix); ok {
			segs++
		}
	}
	if snaps != 1 || segs != 1 {
		t.Fatalf("dir after compaction: %d snapshots, %d segments (%v)", snaps, segs, names)
	}
	s.Close()
	s2 := mustOpen(t, Options{Dir: dir, Registry: obs.NewRegistry()})
	if d, v := s2.DB(); v != 7 || d.Len() != 7 {
		t.Fatalf("reopen after compaction: v=%d len=%d", v, d.Len())
	}
}

// settleCheckpoint waits for the background checkpoint in flight, if any.
func settleCheckpoint(s *Store) {
	s.mu.Lock()
	s.waitCheckpointLocked()
	s.mu.Unlock()
}

// fakeClock is the injectable time source for probe-cooldown tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestReadOnlyDegradationAndProbe is the fault-injection acceptance test:
// an fsync error flips the store read-only without publishing the failed
// batch, reads keep serving, retries fail fast inside the cooldown, and
// once the disk heals a probe past the cooldown restores the write path
// with no orphaned record resurrected.
func TestReadOnlyDegradationAndProbe(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	clock := &fakeClock{t: time.UnixMilli(0)}
	reg := obs.NewRegistry()
	dir := t.TempDir()
	s := mustOpen(t, Options{
		Dir: dir, FS: ffs, Fsync: FsyncBatch,
		ProbeCooldown: 10 * time.Second,
		Registry:      reg,
		now:           clock.now,
	})
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)

	// Arm the fault: the record is appended, then the fsync fails.
	ffs.SetSyncFault(func(name string) error { return fmt.Errorf("injected fsync failure on %s", name) })
	_, _, err := s.Mutate([]db.Fact{fact("R", 1, "orphan", "x")}, nil, -1)
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("fsync fault: err = %v, want ErrReadOnly", err)
	}
	// Nothing published; reads serve the pre-fault state.
	want := db.MustParse(`R(a | b)`)
	if d, v := s.DB(); v != 1 || !d.Equal(want) {
		t.Fatalf("degraded reads: v=%d db=%s", v, d)
	}
	if ro, cause := s.ReadOnly(); !ro || !errors.Is(cause, ErrReadOnly) {
		t.Fatalf("ReadOnly() = %v, %v", ro, cause)
	}
	if g := reg.Gauge(metricReadOnly).Value(); g != 1 {
		t.Fatalf("readonly gauge = %d, want 1", g)
	}

	// Inside the cooldown every mutation fails fast, fault or no fault.
	ffs.SetSyncFault(nil)
	clock.advance(5 * time.Second)
	if _, _, err := s.Mutate([]db.Fact{fact("R", 1, "c", "d")}, nil, -1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("inside cooldown: err = %v, want ErrReadOnly", err)
	}

	// Past the cooldown with the disk still broken: the probe fails and
	// re-arms the cooldown.
	ffs.SetSyncFault(func(name string) error { return fmt.Errorf("still broken") })
	clock.advance(6 * time.Second)
	if _, _, err := s.Mutate([]db.Fact{fact("R", 1, "c", "d")}, nil, -1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("failed probe: err = %v, want ErrReadOnly", err)
	}
	if got := reg.Counter(metricProbes, obs.L{K: "outcome", V: "fail"}).Value(); got == 0 {
		t.Fatal("failed probe not counted")
	}

	// Disk heals; past the new cooldown the probe succeeds and the SAME
	// mutation commits.
	ffs.SetSyncFault(nil)
	clock.advance(11 * time.Second)
	v, _, err := s.Mutate([]db.Fact{fact("R", 1, "c", "d")}, nil, -1)
	if err != nil || v != 2 {
		t.Fatalf("post-probe mutate: v=%d err=%v", v, err)
	}
	if ro, _ := s.ReadOnly(); ro {
		t.Fatal("store still read-only after successful probe")
	}
	if g := reg.Gauge(metricReadOnly).Value(); g != 0 {
		t.Fatalf("readonly gauge = %d after recovery, want 0", g)
	}
	wantAfter := db.MustParse(`R(a | b) R(c | d)`)
	if d, _ := s.DB(); !d.Equal(wantAfter) {
		t.Fatalf("post-probe state: %s, want %s", d, wantAfter)
	}

	// The orphaned record (v2 "orphan") must NOT resurrect on restart: the
	// probe snapshotted the published state and discarded the old segments,
	// so version 2 is "c d", not "orphan x".
	s.Close()
	s2 := mustOpen(t, Options{Dir: dir, Registry: obs.NewRegistry()})
	if d, v := s2.DB(); v != 2 || !d.Equal(wantAfter) {
		t.Fatalf("reopen after probe: v=%d db=%s, want v=2 %s", v, d, wantAfter)
	}
}

// TestShortWriteDegradesAndRecovers: a short write (disk-full style) leaves
// a torn record; the store degrades, and a later reopen truncates the tear
// and serves the pre-fault state.
func TestShortWriteDegradesAndRecovers(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	dir := t.TempDir()
	s := mustOpen(t, Options{Dir: dir, FS: ffs, Fsync: FsyncAlways, Registry: obs.NewRegistry()})
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)

	ffs.SetWriteFault(func(name string, p []byte) (int, error) {
		return len(p) / 2, fmt.Errorf("injected short write")
	})
	if _, _, err := s.Mutate([]db.Fact{fact("R", 1, "torn", "x")}, nil, -1); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("short write: err = %v, want ErrReadOnly", err)
	}
	ffs.SetWriteFault(nil)
	s.Close()

	s2 := mustOpen(t, Options{Dir: dir, Registry: obs.NewRegistry()})
	want := db.MustParse(`R(a | b)`)
	if d, v := s2.DB(); v != 1 || !d.Equal(want) {
		t.Fatalf("recovery after short write: v=%d db=%s", v, d)
	}
	// And the recovered store accepts writes again.
	if _, _, err := s2.Mutate([]db.Fact{fact("R", 1, "c", "d")}, nil, -1); err != nil {
		t.Fatalf("mutate after short-write recovery: %v", err)
	}
}

func TestFsyncNeverSkipsSync(t *testing.T) {
	ffs := NewFaultFS(OSFS{})
	s := mustOpen(t, Options{Dir: t.TempDir(), FS: ffs, Fsync: FsyncNever, SnapshotEvery: -1, Registry: obs.NewRegistry()})
	// With fsync disabled, a broken Sync must never be reached on the
	// mutation path.
	ffs.SetSyncFault(func(name string) error { return fmt.Errorf("sync must not be called") })
	if _, _, err := s.Mutate([]db.Fact{fact("R", 1, "a", "b")}, nil, -1); err != nil {
		t.Fatalf("FsyncNever mutate: %v", err)
	}
}

func TestStoreClosed(t *testing.T) {
	s := mustOpen(t, testOpts(t))
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Mutate([]db.Fact{fact("R", 1, "c", "d")}, nil, -1); !errors.Is(err, ErrClosed) {
		t.Fatalf("mutate after close: %v", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint after close: %v", err)
	}
}

func TestStoreMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{Dir: t.TempDir(), Fsync: FsyncAlways, Registry: reg}
	s := mustOpen(t, opts)
	mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b"), fact("R", 1, "a", "b2")}, nil)
	mustMutate(t, s, nil, []db.Fact{fact("R", 1, "a", "b2")})

	if got := reg.Counter(metricAppends).Value(); got != 2 {
		t.Fatalf("appends = %d, want 2", got)
	}
	if got := reg.Gauge(metricDBVersion).Value(); got != 2 {
		t.Fatalf("version gauge = %d, want 2", got)
	}
	if got := reg.Counter(metricMutations, obs.L{K: "op", V: "insert"}).Value(); got != 2 {
		t.Fatalf("inserted facts = %d, want 2", got)
	}
	if got := reg.Counter(metricMutations, obs.L{K: "op", V: "delete"}).Value(); got != 1 {
		t.Fatalf("deleted facts = %d, want 1", got)
	}
	if got := reg.Histogram(metricFsyncSecs, nil).Count(); got != 2 {
		t.Fatalf("fsync observations = %d, want 2", got)
	}
}

// parkNextSync arms ffs so that the next fsync blocks until release is
// called, closing parked once one is blocked. release disarms the hook
// and is idempotent; it also runs at cleanup, so a failing test never
// leaves a commit parked.
func parkNextSync(t *testing.T, ffs *FaultFS) (parked <-chan struct{}, release func()) {
	t.Helper()
	p, gate := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	ffs.SetSyncFault(func(string) error {
		parkOnce.Do(func() { close(p) })
		<-gate
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

// TestReadsDoNotWaitForCommit: a commit parked inside its fsync holds the
// store's lock, and DB, Version and ReadOnly must still answer at once
// with the state before it.
func TestReadsDoNotWaitForCommit(t *testing.T) {
	ffs := NewFaultFS(nil)
	opts := testOpts(t)
	opts.FS = ffs
	s := mustOpen(t, opts)
	v1 := mustMutate(t, s, []db.Fact{fact("R", 1, "a", "b")}, nil)

	parked, release := parkNextSync(t, ffs)
	committed := make(chan error, 1)
	go func() {
		_, _, err := s.Mutate([]db.Fact{fact("R", 1, "c", "d")}, nil, -1)
		committed <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the mutation never reached its fsync")
	}

	type reads struct {
		n, v, version uint64
		ro            bool
	}
	got := make(chan reads, 1)
	go func() {
		d, v := s.DB()
		ro, _ := s.ReadOnly()
		got <- reads{n: uint64(d.Len()), v: v, version: s.Version(), ro: ro}
	}()
	select {
	case r := <-got:
		if r.v != v1 || r.version != v1 || r.n != 1 || r.ro {
			t.Errorf("reads during the commit = %+v, want version %d with 1 fact, writable", r, v1)
		}
	case <-time.After(time.Second):
		release()
		t.Fatal("DB, Version and ReadOnly waited for a commit parked in its fsync")
	}
	release()
	if err := <-committed; err != nil {
		t.Fatalf("parked mutation: %v", err)
	}
	if d, v := s.DB(); v != v1+1 || d.Len() != 2 {
		t.Errorf("after the commit: version %d with %d facts, want %d with 2", v, d.Len(), v1+1)
	}
}
