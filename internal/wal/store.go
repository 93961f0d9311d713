package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	stdlog "log"
	"path/filepath"
	"time"

	"io"
	"sync"
	"sync/atomic"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/obs"
)

// Typed store errors, all errors.Is-matchable.
var (
	// ErrReadOnly: the store degraded to read-only after a disk fault.
	// Mutations fail with it until a probe re-establishes write access;
	// reads keep serving the in-memory state throughout.
	ErrReadOnly = errors.New("wal: store is read-only")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("wal: store is closed")
	// ErrConflict: a compare-and-swap mutation named a version that is no
	// longer current. Permanent for that request: retrying the identical
	// request can never succeed.
	ErrConflict = errors.New("wal: version conflict")
)

// ConflictError reports a failed compare-and-swap: the version the client
// expected versus the version the store is at.
type ConflictError struct {
	Want uint64
	Have uint64
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("wal: version conflict: expected %d, store is at %d", e.Want, e.Have)
}

// Is matches ErrConflict.
func (e *ConflictError) Is(target error) bool { return target == ErrConflict }

// FsyncMode selects when appended records are fsynced.
type FsyncMode string

const (
	// FsyncBatch (default): one fsync per commit batch — concurrent
	// mutations group-commit, sharing a single fsync. Every acknowledged
	// mutation is durable.
	FsyncBatch FsyncMode = "batch"
	// FsyncAlways: one fsync per record, even within a batch.
	FsyncAlways FsyncMode = "always"
	// FsyncNever: never fsync on the mutation path (the OS flushes when it
	// pleases). Acknowledged mutations may be lost in a crash; for
	// benchmarks and tests only.
	FsyncNever FsyncMode = "never"
)

// ParseFsyncMode validates a -fsync flag value.
func ParseFsyncMode(s string) (FsyncMode, error) {
	switch FsyncMode(s) {
	case FsyncBatch, FsyncAlways, FsyncNever:
		return FsyncMode(s), nil
	case "":
		return FsyncBatch, nil
	}
	return "", fmt.Errorf("wal: unknown fsync mode %q (want batch, always, or never)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory (required). Created if absent.
	Dir string
	// FS defaults to OSFS. Tests inject FaultFS.
	FS FS
	// Fsync defaults to FsyncBatch.
	Fsync FsyncMode
	// SegmentBytes caps a WAL segment before rotation (default 64 MiB).
	SegmentBytes int64
	// SnapshotEvery checkpoints after this many committed records
	// (default 4096; negative disables automatic checkpoints).
	SnapshotEvery int
	// ProbeCooldown is the minimum time between disk re-probes while
	// degraded (default 5s), mirroring the query-class breaker's half-open
	// cooldown.
	ProbeCooldown time.Duration
	// Seed is the initial database when the directory holds no state.
	Seed *db.DB
	// Registry receives the WAL metrics (default obs.Default).
	Registry *obs.Registry
	// Logger, when non-nil, receives one line per lifecycle event.
	Logger *stdlog.Logger

	// now is a test seam for the probe cooldown clock.
	now func() time.Time
}

// Metric names exposed on /metrics.
const (
	metricAppends    = "certd_wal_appends_total"
	metricFsyncSecs  = "certd_wal_fsync_seconds"
	metricWALErrors  = "certd_wal_errors_total"
	metricDBVersion  = "certd_db_version"
	metricReadOnly   = "certd_db_readonly"
	metricMutations  = "certd_db_mutations_total"
	metricReplayRecs = "certd_wal_replay_records_total"
	metricTruncBytes = "certd_wal_truncated_bytes_total"
	metricSnapshots  = "certd_wal_snapshots_total"
	metricProbes     = "certd_wal_probes_total"
)

// Store is the durable, versioned uncertain database behind /v1/db. All
// mutations are serialized, written to the WAL, made durable per the fsync
// mode, and only then published; reads always see a fully committed,
// immutable snapshot. Reads (DB, Version, ReadOnly) take no lock: a commit
// holds the store's lock across its append, fsync, apply and a due
// checkpoint's segment rotation, and readers must not wait for it. The
// checkpoint itself (encode, write, fsync, rename, compaction) runs on a
// goroutine of the store's, off the commit path. Safe for concurrent use.
type Store struct {
	opts Options
	fs   FS
	reg  *obs.Registry

	mAppends  *obs.Counter
	mFsync    *obs.Histogram
	mVersion  *obs.Gauge
	mReadOnly *obs.Gauge

	// pub is the published snapshot with its version, and ro the read-only
	// cause while degraded (nil when writable). Both are set under mu and
	// read without it.
	pub atomic.Pointer[published]
	ro  atomic.Pointer[error]

	mu        sync.Mutex // guards the fields below
	log       *log
	sinceSnap int
	closed    bool
	degraded  error     // non-nil cause while read-only
	probeAt   time.Time // earliest next probe while degraded
	// ckpt is closed when the background checkpoint last started ends; nil
	// when none was started since the last wait. At most one is in flight.
	ckpt chan struct{}

	qmu        sync.Mutex
	queue      []*mutateReq
	committing bool
}

// published is one committed snapshot and its version. The snapshot is
// immutable.
type published struct {
	d       *db.DB
	version uint64
}

// mutateReq is one queued mutation awaiting group commit.
type mutateReq struct {
	ins, del  []db.Fact
	ifVersion int64
	done      chan struct{}
	version   uint64
	applied   int
	err       error
}

// Record payload kinds (first payload byte).
const (
	kindMutation = 0x01
	kindSnapshot = 0x02
)

// mutationRecord is the JSON body of a kindMutation payload: the version
// the database reaches by applying it, plus the effective (normalized)
// inserted and deleted facts. Records are normalized at commit time —
// already-present inserts and absent deletes are dropped — so replay is a
// pure, validation-free application.
type mutationRecord struct {
	V   uint64    `json:"v"`
	Ins []db.Fact `json:"ins,omitempty"`
	Del []db.Fact `json:"del,omitempty"`
}

func encodeMutation(rec mutationRecord) ([]byte, error) {
	body, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	return append([]byte{kindMutation}, body...), nil
}

// Open recovers the store from dir: it loads the newest valid snapshot,
// replays every WAL record beyond it (truncating a torn tail in the final
// segment), and starts a fresh segment for new writes.
//
// Failures while reconstructing state — an unreadable directory, a version
// gap, corruption anywhere but the final segment's tail — fail Open: the
// database content cannot be determined. Failures while re-establishing
// WRITE access (truncating the tail, creating the new segment, writing the
// initial checkpoint) do NOT fail Open: the store comes up read-only with
// the recovered state served, and the probe machinery retries the disk.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.Fsync == "" {
		opts.Fsync = FsyncBatch
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if opts.SnapshotEvery == 0 {
		opts.SnapshotEvery = 4096
	}
	if opts.ProbeCooldown <= 0 {
		opts.ProbeCooldown = 5 * time.Second
	}
	if opts.Registry == nil {
		opts.Registry = obs.Default
	}
	if opts.now == nil {
		opts.now = time.Now
	}
	s := &Store{opts: opts, fs: opts.FS, reg: opts.Registry}
	s.reg.Help(metricAppends, "WAL records appended (durable once the commit's fsync completes).")
	s.reg.Help(metricFsyncSecs, "WAL fsync latency in seconds (one observation per fsync).")
	s.reg.Help(metricWALErrors, "WAL disk faults, by operation.")
	s.reg.Help(metricDBVersion, "Current version of the hosted database (monotonic across mutations).")
	s.reg.Help(metricReadOnly, "1 while the store is degraded to read-only after a disk fault.")
	s.reg.Help(metricMutations, "Facts applied by committed mutations, by operation.")
	s.reg.Help(metricReplayRecs, "WAL records applied during crash recovery.")
	s.reg.Help(metricTruncBytes, "Torn-tail bytes truncated from the final WAL segment on recovery.")
	s.reg.Help(metricSnapshots, "Snapshots (checkpoints) written, by cause.")
	s.reg.Help(metricProbes, "Disk re-probes while read-only, by outcome.")
	s.mAppends = s.reg.Counter(metricAppends)
	s.mFsync = s.reg.Histogram(metricFsyncSecs, nil)
	s.mVersion = s.reg.Gauge(metricDBVersion)
	s.mReadOnly = s.reg.Gauge(metricReadOnly)

	if err := s.fs.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: create data dir: %w", err)
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) logf(format string, args ...any) {
	if s.opts.Logger != nil {
		s.opts.Logger.Printf(format, args...)
	}
}

func (s *Store) path(name string) string { return filepath.Join(s.opts.Dir, name) }

// recover reconstructs state from disk and re-arms the write path.
func (s *Store) recover() error {
	segs, snaps, err := listSegments(s.fs, s.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: list data dir: %w", err)
	}

	// Newest valid snapshot wins; older ones are fallbacks against a torn
	// or corrupted checkpoint file.
	var cur *db.DB
	var version uint64
	var haveSnap bool
	for i := len(snaps) - 1; i >= 0; i-- {
		d, v, err := s.readSnapshot(snapName(snaps[i]))
		if err != nil {
			s.logf("wal: snapshot %s unusable (%v); falling back", snapName(snaps[i]), err)
			continue
		}
		cur, version, haveSnap = d, v, true
		break
	}
	if cur == nil {
		if s.opts.Seed != nil {
			cur = s.opts.Seed.Clone()
		} else {
			cur = db.New()
		}
	}
	// Only recovery reads the seed. Keeping it for the store's lifetime
	// would hold the caller's database, and the interned view Parse built
	// for it, after the first write replaces the snapshot that shares them.
	s.opts.Seed = nil

	// Replay the log beyond the snapshot. Corruption is tolerated only as
	// a torn tail of the FINAL segment (the only place a crash can leave
	// one, by the rotation invariant); anywhere else recovery refuses to
	// guess.
	replayed := 0
	var truncations int64
	for i, seq := range segs {
		last := i == len(segs)-1
		clean, total, recs, err := s.replaySegment(segName(seq), cur, &version)
		replayed += recs
		if err != nil {
			if !last || !errors.Is(err, ErrCorrupt) {
				return fmt.Errorf("wal: segment %s: %w", segName(seq), err)
			}
			// Torn tail: drop it so the next recovery sees a clean segment.
			s.logf("wal: truncating torn tail of %s at offset %d: %v", segName(seq), clean, err)
			if terr := s.fs.Truncate(s.path(segName(seq)), clean); terr != nil {
				s.mu.Lock()
				s.degradeLocked("truncate", fmt.Errorf("truncate torn tail: %w", terr))
				s.mu.Unlock()
			}
			truncations++
			if total > clean {
				s.reg.Counter(metricTruncBytes).Add(uint64(total - clean))
			}
		}
	}
	s.reg.Counter(metricReplayRecs).Add(uint64(replayed))

	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishLocked(cur, version)

	nextSeq := uint64(1)
	if len(segs) > 0 {
		nextSeq = segs[len(segs)-1] + 1
	}
	if s.degraded == nil {
		l, err := openLog(s.fs, s.opts.Dir, nextSeq, s.opts.SegmentBytes)
		if err != nil {
			s.degradeLocked("segment-create", err)
		} else {
			s.log = l
		}
	}
	// Checkpoint when recovery did real work (replay happened) or when no
	// snapshot existed yet (first boot, possibly seeded): the next restart
	// then starts from the snapshot instead of re-replaying.
	if s.degraded == nil && (replayed > 0 || !haveSnap) {
		if err := s.writeSnapshot(s.pub.Load(), "recovery"); err != nil {
			s.degradeLocked("snapshot", err)
		} else {
			s.compact(s.log.seq, version)
		}
	}
	if replayed > 0 || truncations > 0 || !haveSnap {
		s.logf("wal: recovered version %d (%d facts, %d replayed records)", version, cur.Len(), replayed)
	}
	return nil
}

// replaySegment applies one segment's records on top of d, advancing
// *version. Returns the clean byte prefix, the total bytes consumed, the
// records applied, and the first error: a *CorruptError for
// framing/decoding damage (the caller decides whether truncation is sound)
// or a hard error for version gaps.
func (s *Store) replaySegment(name string, d *db.DB, version *uint64) (clean, total int64, applied int, err error) {
	f, err := s.fs.Open(s.path(name))
	if err != nil {
		return 0, 0, 0, fmt.Errorf("open: %w", err)
	}
	defer f.Close()
	cr := &countingReader{r: f}
	clean, err = ReadRecords(cr, func(payload []byte) error {
		rec, derr := decodeMutationPayload(payload)
		if derr != nil {
			return &CorruptError{Offset: -1, Reason: derr.Error()}
		}
		switch {
		case rec.V <= *version:
			return nil // covered by the snapshot (or a compacted overlap)
		case rec.V == *version+1:
			if aerr := applyMutation(d, rec); aerr != nil {
				return &CorruptError{Offset: -1, Reason: aerr.Error()}
			}
			*version = rec.V
			applied++
			return nil
		default:
			// A version gap is not a crash artifact — records are written
			// contiguously — so it means lost history: refuse to serve a
			// silently inconsistent database.
			return fmt.Errorf("version gap: record %d follows version %d", rec.V, *version)
		}
	})
	return clean, cr.n, applied, err
}

// countingReader counts bytes consumed, so recovery can report how many
// torn-tail bytes a truncation discards.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// decodeMutationPayload parses a kindMutation record payload.
func decodeMutationPayload(payload []byte) (mutationRecord, error) {
	var rec mutationRecord
	if len(payload) == 0 || payload[0] != kindMutation {
		return rec, fmt.Errorf("not a mutation record")
	}
	if err := json.Unmarshal(payload[1:], &rec); err != nil {
		return rec, fmt.Errorf("mutation body: %v", err)
	}
	return rec, nil
}

// applyMutation replays one normalized record. Records only carry effective
// facts, so a failed insert or a missing delete means the log does not
// match the state it claims to extend.
func applyMutation(d *db.DB, rec mutationRecord) error {
	for _, f := range rec.Ins {
		if err := d.Add(f); err != nil {
			return fmt.Errorf("replay insert %s: %v", f, err)
		}
	}
	for _, f := range rec.Del {
		if !d.Remove(f) {
			return fmt.Errorf("replay delete of absent fact %s", f)
		}
	}
	return nil
}

// readSnapshot loads one checkpoint file: a single framed record holding
// the version and a gob snapshot of the database.
func (s *Store) readSnapshot(name string) (*db.DB, uint64, error) {
	f, err := s.fs.Open(s.path(name))
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	var d *db.DB
	var v uint64
	var decoded bool
	_, err = ReadRecords(f, func(payload []byte) error {
		if decoded {
			return errors.New("trailing record in snapshot file")
		}
		if len(payload) < 9 || payload[0] != kindSnapshot {
			return errors.New("not a snapshot record")
		}
		v = binary.LittleEndian.Uint64(payload[1:9])
		var rerr error
		d, rerr = db.ReadSnapshot(bytes.NewReader(payload[9:]))
		if rerr != nil {
			return rerr
		}
		decoded = true
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if !decoded {
		return nil, 0, errors.New("empty snapshot file")
	}
	return d, v, nil
}

// publishLocked makes d at version v the state readers see. Caller holds
// s.mu.
func (s *Store) publishLocked(d *db.DB, v uint64) {
	s.pub.Store(&published{d: d, version: v})
	s.mVersion.Set(int64(v))
}

// writeSnapshot durably checkpoints the published state cur: a temp file
// with one checksummed record, fsynced, renamed into place, directory
// fsynced. It takes no lock (cur is immutable), and the caller makes sure
// no other snapshot is written meanwhile.
func (s *Store) writeSnapshot(cur *published, cause string) error {
	// The record is built in place: the header's room, then the payload
	// (kind, version, the encoded database), framed once it is complete.
	var head [headerSize + 1 + 8]byte
	head[headerSize] = kindSnapshot
	binary.LittleEndian.PutUint64(head[headerSize+1:], cur.version)
	var body bytes.Buffer
	body.Write(head[:])
	if err := cur.d.WriteSnapshot(&body); err != nil {
		return fmt.Errorf("encode snapshot: %w", err)
	}
	framed := body.Bytes()
	frame(framed)

	final := snapName(cur.version)
	tmp := final + tmpSuffix
	f, err := s.fs.Create(s.path(tmp))
	if err != nil {
		return fmt.Errorf("create snapshot temp: %w", err)
	}
	if _, err := f.Write(framed); err != nil {
		f.Close()
		return fmt.Errorf("write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close snapshot: %w", err)
	}
	if err := s.fs.Rename(s.path(tmp), s.path(final)); err != nil {
		return fmt.Errorf("rename snapshot into place: %w", err)
	}
	if err := s.fs.SyncDir(s.opts.Dir); err != nil {
		return fmt.Errorf("sync dir after snapshot: %w", err)
	}
	s.reg.Counter(metricSnapshots, obs.L{K: "cause", V: cause}).Inc()
	return nil
}

// compact removes what a durable snapshot at version made redundant: the
// segments before seg, which hold no record past version, and the older
// snapshots. Best effort: a failure leaves extra files, not incorrect
// state. It takes no lock; the caller makes sure no snapshot is written
// meanwhile.
func (s *Store) compact(seg, version uint64) {
	segs, snaps, err := listSegments(s.fs, s.opts.Dir)
	if err != nil {
		return
	}
	for _, seq := range segs {
		if seq < seg {
			_ = s.fs.Remove(s.path(segName(seq)))
		}
	}
	for _, v := range snaps {
		if v < version {
			_ = s.fs.Remove(s.path(snapName(v)))
		}
	}
	_ = s.fs.SyncDir(s.opts.Dir)
}

// degradeLocked flips the store read-only, recording the cause and arming
// the probe cooldown. Caller holds s.mu.
func (s *Store) degradeLocked(op string, cause error) {
	s.reg.Counter(metricWALErrors, obs.L{K: "op", V: op}).Inc()
	if s.degraded == nil {
		s.logf("wal: disk fault during %s, degrading to read-only: %v", op, cause)
		s.degraded = fmt.Errorf("%w: %s: %v", ErrReadOnly, op, cause)
		ro := s.degraded
		s.ro.Store(&ro)
		s.mReadOnly.Set(1)
	}
	s.probeAt = s.opts.now().Add(s.opts.ProbeCooldown)
	if s.log != nil {
		if s.log.f != nil {
			_ = s.log.f.Close()
			s.log.f = nil
		}
		s.log = nil
	}
}

// probeLocked attempts to re-establish write access while degraded: it
// writes a fresh durable snapshot of the published state, removes every
// WAL segment (including any orphaned, never-acknowledged tail records a
// failed batch may have left), and opens a fresh segment. Only if all
// three succeed does the store become writable; any failure re-arms the
// cooldown. This is the disk analogue of the query-class breaker's
// half-open probe: one request pays for the recovery attempt, the rest
// keep failing fast. Caller holds s.mu.
func (s *Store) probeLocked() bool {
	s.waitCheckpointLocked()
	segsBefore, _, err := listSegments(s.fs, s.opts.Dir)
	if err == nil {
		err = s.writeSnapshot(s.pub.Load(), "probe")
	}
	if err == nil {
		for _, seq := range segsBefore {
			if rerr := s.fs.Remove(s.path(segName(seq))); rerr != nil {
				err = fmt.Errorf("remove stale segment: %w", rerr)
				break
			}
		}
	}
	if err == nil {
		err = s.fs.SyncDir(s.opts.Dir)
	}
	var nextSeq uint64 = 1
	if len(segsBefore) > 0 {
		nextSeq = segsBefore[len(segsBefore)-1] + 1
	}
	if err == nil {
		var l *log
		l, err = openLog(s.fs, s.opts.Dir, nextSeq, s.opts.SegmentBytes)
		if err == nil {
			s.log = l
		}
	}
	if err != nil {
		s.reg.Counter(metricProbes, obs.L{K: "outcome", V: "fail"}).Inc()
		s.probeAt = s.opts.now().Add(s.opts.ProbeCooldown)
		s.logf("wal: read-only probe failed, staying degraded: %v", err)
		return false
	}
	s.reg.Counter(metricProbes, obs.L{K: "outcome", V: "ok"}).Inc()
	s.degraded = nil
	s.ro.Store(nil)
	s.mReadOnly.Set(0)
	s.sinceSnap = 0
	s.compact(s.log.seq, s.pub.Load().version)
	s.logf("wal: read-only probe succeeded, write path restored at version %d", s.pub.Load().version)
	return true
}

// DB returns the current published database snapshot and its version. The
// snapshot is immutable: later mutations publish new snapshots and never
// touch this one, so callers may solve against it for as long as they like.
// It never waits for a commit in progress.
func (s *Store) DB() (*db.DB, uint64) {
	p := s.pub.Load()
	return p.d, p.version
}

// Version returns the current database version. It never waits for a
// commit in progress.
func (s *Store) Version() uint64 {
	return s.pub.Load().version
}

// ReadOnly reports whether the store is degraded, and the cause. It never
// waits for a commit in progress.
func (s *Store) ReadOnly() (bool, error) {
	if ro := s.ro.Load(); ro != nil {
		return true, *ro
	}
	return false, nil
}

// Mutate atomically applies a mutation request: all inserts, then all
// deletes. ifVersion < 0 applies unconditionally; ifVersion >= 0 is a
// compare-and-swap that fails with ErrConflict unless it names the current
// version. The returned version is the store's version after the request
// (unchanged for a no-op), and applied counts the facts actually inserted
// plus deleted.
//
// Concurrent mutations group-commit: they are serialized, appended to the
// WAL in order, and made durable with a single shared fsync per batch
// (FsyncBatch). Mutate returns only after the mutation is durable per the
// configured mode and published to readers.
func (s *Store) Mutate(ins, del []db.Fact, ifVersion int64) (version uint64, applied int, err error) {
	req := &mutateReq{ins: ins, del: del, ifVersion: ifVersion, done: make(chan struct{})}
	s.qmu.Lock()
	s.queue = append(s.queue, req)
	if !s.committing {
		s.committing = true
		s.qmu.Unlock()
		s.commitLoop()
	} else {
		s.qmu.Unlock()
	}
	<-req.done
	return req.version, req.applied, req.err
}

// commitLoop drains the mutation queue as the batch leader: requests that
// arrive while a batch is being fsynced form the next batch and share its
// fsync.
func (s *Store) commitLoop() {
	for {
		s.qmu.Lock()
		batch := s.queue
		s.queue = nil
		if len(batch) == 0 {
			s.committing = false
			s.qmu.Unlock()
			return
		}
		s.qmu.Unlock()
		s.commitBatch(batch)
	}
}

func (s *Store) commitBatch(batch []*mutateReq) {
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		for _, req := range batch {
			close(req.done)
		}
	}()

	if s.closed {
		for _, req := range batch {
			req.err = ErrClosed
		}
		return
	}
	if s.degraded != nil {
		// Breaker-style half-open: one batch past the cooldown pays for the
		// probe; within the cooldown everything fails fast.
		if s.opts.now().Before(s.probeAt) || !s.probeLocked() {
			for _, req := range batch {
				req.err = s.degraded
			}
			return
		}
	}

	cur := s.pub.Load()
	work, wv := cur.d, cur.version
	written := 0
	var diskErr error
	var diskOp string

	for _, req := range batch {
		if req.ifVersion >= 0 && uint64(req.ifVersion) != wv {
			req.err = &ConflictError{Want: uint64(req.ifVersion), Have: wv}
			continue
		}
		effIns, effDel, verr := normalize(work, req.ins, req.del)
		if verr != nil {
			req.err = verr
			continue
		}
		if len(effIns) == 0 && len(effDel) == 0 {
			req.version = wv // no-op: nothing written, version unchanged
			continue
		}
		rec := mutationRecord{V: wv + 1, Ins: effIns, Del: effDel}
		payload, merr := encodeMutation(rec)
		if merr != nil {
			req.err = fmt.Errorf("wal: encode mutation: %w", merr)
			continue
		}
		if aerr := s.log.append(payload); aerr != nil {
			diskErr, diskOp = aerr, "append"
			break
		}
		if s.opts.Fsync == FsyncAlways {
			start := time.Now()
			if serr := s.log.sync(); serr != nil {
				diskErr, diskOp = serr, "fsync"
				break
			}
			s.mFsync.Observe(time.Since(start).Seconds())
		}
		if work == cur.d {
			work = cur.d.Clone()
		}
		for _, f := range effIns {
			if err := work.Add(f); err != nil {
				// Unreachable after normalize. If it ever fires, work may be
				// half-applied and the WAL holds its record: treat it like a
				// disk fault so nothing partial is published and the probe's
				// snapshot-and-reset discards the orphaned record.
				diskErr, diskOp = fmt.Errorf("apply insert: %w", err), "apply"
				break
			}
		}
		if diskErr != nil {
			break
		}
		for _, f := range effDel {
			work.Remove(f)
		}
		wv = rec.V
		req.version = wv
		req.applied = len(effIns) + len(effDel)
		written++

		s.mAppends.Inc()
		s.reg.Counter(metricMutations, obs.L{K: "op", V: "insert"}).Add(uint64(len(effIns)))
		s.reg.Counter(metricMutations, obs.L{K: "op", V: "delete"}).Add(uint64(len(effDel)))
	}

	if diskErr == nil && written > 0 && s.opts.Fsync == FsyncBatch {
		start := time.Now()
		if serr := s.log.sync(); serr != nil {
			diskErr, diskOp = serr, "fsync"
		} else {
			s.mFsync.Observe(time.Since(start).Seconds())
		}
	}

	if diskErr != nil {
		// Nothing from this batch is published or acknowledged: records may
		// or may not have reached the disk, which is exactly the ambiguity
		// an unacknowledged write is allowed to have. The probe's
		// snapshot-and-reset discards any such orphaned tail before the
		// write path reopens, so an orphan can never collide with a future
		// version.
		s.degradeLocked(diskOp, diskErr)
		for _, req := range batch {
			// Requests that already failed on their own terms (conflict,
			// validation) keep their error; everything else — including
			// no-ops, whose observed version may include unpublished
			// increments — fails as read-only with its ack rolled back.
			if req.err == nil {
				req.version, req.applied = 0, 0
				req.err = s.degraded
			}
		}
		return
	}

	if written > 0 {
		s.publishLocked(work, wv)
		s.sinceSnap += written
		// A checkpoint that falls due while one is in flight is taken at
		// the first commit after that one ends.
		if s.opts.SnapshotEvery > 0 && s.sinceSnap >= s.opts.SnapshotEvery && !s.checkpointBusyLocked() {
			s.checkpointLocked("auto")
		}
	}
}

// normalize validates a request against the working state and reduces it to
// its effective facts: inserts not already present (each validated for
// shape and signature consistency), deletes actually present. Facts match
// as a whole, key length included, which Fact.ID leaves out: a delete of
// R(a, b) neither removes nor cancels R(a | b). A validation error rejects
// the whole request; the store is untouched.
func normalize(work *db.DB, ins, del []db.Fact) (effIns, effDel []db.Fact, err error) {
	type sig = [2]int
	type whole struct {
		id     string
		keyLen int
	}
	pendingSigs := make(map[string]sig)
	pendingIns := make(map[whole]bool)
	for _, f := range ins {
		if err := f.Validate(); err != nil {
			return nil, nil, fmt.Errorf("wal: invalid fact: %w", err)
		}
		fs := sig{len(f.Args), f.KeyLen}
		if a, k, ok := work.Signature(f.Rel); ok && (sig{a, k}) != fs {
			return nil, nil, fmt.Errorf("wal: relation %s used with signatures [%d,%d] and [%d,%d]",
				f.Rel, a, k, fs[0], fs[1])
		}
		if prev, ok := pendingSigs[f.Rel]; ok && prev != fs {
			return nil, nil, fmt.Errorf("wal: relation %s used with signatures [%d,%d] and [%d,%d] in one request",
				f.Rel, prev[0], prev[1], fs[0], fs[1])
		}
		pendingSigs[f.Rel] = fs
		id := whole{f.ID(), f.KeyLen}
		if work.Has(f) || pendingIns[id] {
			continue
		}
		pendingIns[id] = true
		effIns = append(effIns, f)
	}
	pendingDel := make(map[whole]bool)
	for _, f := range del {
		id := whole{f.ID(), f.KeyLen}
		if pendingDel[id] {
			continue
		}
		// Deletable iff present after the request's inserts.
		if !work.Has(f) && !pendingIns[id] {
			continue
		}
		pendingDel[id] = true
		effDel = append(effDel, f)
	}
	return effIns, effDel, nil
}

// checkpointLocked rotates to a fresh segment, then snapshots the
// published state and compacts on a goroutine of the store's. Used on the
// healthy path; a rotation failure degrades the store, while a snapshot
// failure only skips this checkpoint (the WAL itself is intact, so
// durability is unaffected). Caller holds s.mu, and no checkpoint is in
// flight.
func (s *Store) checkpointLocked(cause string) {
	if err := s.log.rotate(); err != nil {
		s.degradeLocked("rotate", err)
		return
	}
	s.sinceSnap = 0
	cur, seg := s.pub.Load(), s.log.seq
	done := make(chan struct{})
	s.ckpt = done
	go func() {
		defer close(done)
		s.snapshotAndCompact(cur, seg, cause)
	}()
}

// snapshotAndCompact writes the checkpoint of cur, whose records end
// before segment seg, and compacts once it is durable; a failure is
// counted and the checkpoint skipped. It takes no lock.
func (s *Store) snapshotAndCompact(cur *published, seg uint64, cause string) {
	if err := s.writeSnapshot(cur, cause); err != nil {
		s.reg.Counter(metricWALErrors, obs.L{K: "op", V: "snapshot"}).Inc()
		s.logf("wal: checkpoint skipped: %v", err)
		return
	}
	s.compact(seg, cur.version)
}

// checkpointBusyLocked reports whether a background checkpoint is in
// flight. Caller holds s.mu.
func (s *Store) checkpointBusyLocked() bool {
	if s.ckpt == nil {
		return false
	}
	select {
	case <-s.ckpt:
		s.ckpt = nil
		return false
	default:
		return true
	}
}

// waitCheckpointLocked waits for the background checkpoint in flight, if
// any. Caller holds s.mu, which the checkpoint never takes.
func (s *Store) waitCheckpointLocked() {
	if s.ckpt != nil {
		<-s.ckpt
		s.ckpt = nil
	}
}

// Checkpoint forces a snapshot + compaction outside the automatic cadence
// and returns once it ends.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.degraded != nil {
		return s.degraded
	}
	s.waitCheckpointLocked()
	s.checkpointLocked("manual")
	s.waitCheckpointLocked()
	if s.degraded != nil {
		return s.degraded
	}
	return nil
}

// Close makes outstanding state durable and stops the store, once the
// checkpoint in flight ends. Mutations after Close fail with ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.waitCheckpointLocked()
	if s.log != nil {
		return s.log.close()
	}
	return nil
}
