package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/govern"
	"github.com/cqa-go/certainty/internal/obs"
	"github.com/cqa-go/certainty/internal/solver"
	"github.com/cqa-go/certainty/internal/wal"
)

// newStoreServer opens a durable store in a temp dir (on the given FS, or
// the real one when nil) and a server hosting it.
func newStoreServer(t *testing.T, fs wal.FS) (*Server, *wal.Store) {
	t.Helper()
	return newHostedServer(t, fs, Config{
		Policy:   govern.Policy{DefaultBudget: 1 << 20, MaxBudget: 1 << 20},
		Registry: obs.NewRegistry(),
	})
}

// newHostedServer is newStoreServer with the rest of the server's config
// given by the caller.
func newHostedServer(t *testing.T, fs wal.FS, cfg Config) (*Server, *wal.Store) {
	t.Helper()
	st, err := wal.Open(wal.Options{
		Dir:      t.TempDir(),
		FS:       fs,
		Fsync:    wal.FsyncAlways,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	cfg.Store = st
	return New(cfg), st
}

// mutateHosted inserts (POST) or deletes (DELETE) facts in the hosted
// database and returns the store's version after the write.
func mutateHosted(t *testing.T, s *Server, method, facts string) uint64 {
	t.Helper()
	return decodeMutate(t, doJSON(t, s, nil, method, "/v1/db/facts", DBMutateRequest{Facts: facts})).Version
}

func decodeMutate(t *testing.T, rec *httptest.ResponseRecorder) DBMutateResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp DBMutateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode mutate response %s: %v", rec.Body, err)
	}
	return resp
}

func decodeDBGet(t *testing.T, rec *httptest.ResponseRecorder) DBGetResponse {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body)
	}
	var resp DBGetResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode db response %s: %v", rec.Body, err)
	}
	return resp
}

// TestDBGetDigestMemoized: GET /v1/db composes its digest from per-relation
// digests memoized on the snapshot, so a repeated GET hashes nothing, a GET
// after a write to one relation hashes that relation alone, and the digest
// is the one a fresh parse of the served facts gives.
func TestDBGetDigestMemoized(t *testing.T) {
	digests := obs.Default.Counter("db_digest_computations_total")
	s, _ := newStoreServer(t, nil)
	mutateHosted(t, s, "POST", "R1(a | b) R1(a | c) R2(b | d) R3(d | a) U(u | v)")
	get := func() DBGetResponse {
		t.Helper()
		return decodeDBGet(t, doJSON(t, s, nil, "GET", "/v1/db?facts=1", nil))
	}
	check := func(step string, resp DBGetResponse, want uint64, before uint64) {
		t.Helper()
		if got := digests.Value() - before; got != want {
			t.Errorf("%s: GET computed %d relation digests, want %d", step, got, want)
		}
		if fresh := db.MustParse(resp.Facts).Digest(); resp.Digest != fresh {
			t.Errorf("%s: digest %s, a fresh parse of the facts %s", step, resp.Digest, fresh)
		}
	}
	get() // the first GET composes every relation's digest
	before := digests.Value()
	check("repeated GET", get(), 0, before)
	mutateHosted(t, s, "POST", "R1(a | e)")
	before = digests.Value()
	check("GET after a write to R1", get(), 1, before)
	before = digests.Value()
	check("GET after that", get(), 0, before)
}

// TestDBEndpoints drives the full /v1/db lifecycle: empty GET, insert,
// hosted solve carrying the version, delete, CAS conflict with the
// current version in the error body.
func TestDBEndpoints(t *testing.T) {
	s, _ := newStoreServer(t, nil)

	if got := decodeDBGet(t, doJSON(t, s, nil, "GET", "/v1/db", nil)); got.Version != 0 || got.NumFacts != 0 {
		t.Fatalf("fresh db = %+v, want version 0, 0 facts", got)
	}

	ins := decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts",
		DBMutateRequest{Facts: "R(a | b) R(a | c) S(a | b)"}))
	if ins.Version != 1 || ins.Applied != 3 {
		t.Fatalf("insert = %+v, want version 1 applied 3", ins)
	}

	got := decodeDBGet(t, doJSON(t, s, nil, "GET", "/v1/db?facts=1", nil))
	if got.Version != 1 || got.NumFacts != 3 || got.NumBlocks != 2 {
		t.Fatalf("db after insert = %+v", got)
	}
	if got.Facts == "" || got.Digest == "" {
		t.Fatalf("facts dump or digest missing: %+v", got)
	}

	// Hosted solve: empty db text uses the durable database and reports
	// which version answered.
	solve := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)"}))
	if !solve.Verdict.Result.Certain {
		t.Fatalf("hosted solve verdict = %+v, want certain (R(a|b), R(a|c) is one block, both bind y)", solve.Verdict)
	}
	if solve.DBVersion == nil || *solve.DBVersion != 1 {
		t.Fatalf("hosted solve DBVersion = %v, want 1", solve.DBVersion)
	}

	del := decodeMutate(t, doJSON(t, s, nil, "DELETE", "/v1/db/facts",
		DBMutateRequest{Facts: "S(a | b)"}))
	if del.Version != 2 || del.Applied != 1 {
		t.Fatalf("delete = %+v, want version 2 applied 1", del)
	}

	// CAS naming a stale version: 409 carrying where the database actually is.
	stale := uint64(1)
	rec := doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: "R(z | z)", IfVersion: &stale})
	body := decodeError(t, rec, http.StatusConflict, CodeConflict)
	if body.Version != 2 {
		t.Fatalf("conflict body version = %d, want 2", body.Version)
	}
	if got := decodeDBGet(t, doJSON(t, s, nil, "GET", "/v1/db", nil)); got.Version != 2 {
		t.Fatalf("rejected CAS must not move the version: %+v", got)
	}

	// Matching CAS commits.
	cur := uint64(2)
	ok := decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: "R(z | z)", IfVersion: &cur}))
	if ok.Version != 3 {
		t.Fatalf("CAS insert = %+v, want version 3", ok)
	}

	// Malformed facts and empty lists are rejected before touching the WAL.
	decodeError(t, doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: "not-a-fact(("}),
		http.StatusBadRequest, CodeMalformed)
	decodeError(t, doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: ""}),
		http.StatusBadRequest, CodeMalformed)
}

// TestDBDeleteKeyLengthMismatch: a DELETE naming a stored fact's
// arguments under another key length deletes nothing. It is acknowledged
// as a no-op (200, applied 0, version unchanged), and the snapshot stays
// consistent: it equals a fresh parse of its own text, and the stored
// fact can still be deleted.
func TestDBDeleteKeyLengthMismatch(t *testing.T) {
	s, _ := newStoreServer(t, nil)
	v := mutateHosted(t, s, "POST", "R(a | b)")

	del := decodeMutate(t, doJSON(t, s, nil, "DELETE", "/v1/db/facts", DBMutateRequest{Facts: "R(a, b)"}))
	if del.Version != v || del.Applied != 0 {
		t.Fatalf("delete of R(a, b) = %+v, want version %d applied 0", del, v)
	}
	got := decodeDBGet(t, doJSON(t, s, nil, "GET", "/v1/db?facts=1", nil))
	fresh := db.MustParse(got.Facts)
	if got.Version != v || got.NumFacts != fresh.Len() || got.NumBlocks != fresh.NumBlocks() || got.Digest != fresh.Digest() || fresh.Len() != 1 {
		t.Fatalf("snapshot %+v differs from a fresh parse of its text (%d facts, %d blocks, digest %s)",
			got, fresh.Len(), fresh.NumBlocks(), fresh.Digest())
	}
	if del := decodeMutate(t, doJSON(t, s, nil, "DELETE", "/v1/db/facts", DBMutateRequest{Facts: "R(a | b)"})); del.Applied != 1 {
		t.Fatalf("delete of R(a | b) = %+v, want applied 1", del)
	}
}

// TestDBRequiresStore: a stateless server answers every /v1/db route
// with 404 and a hint about -data-dir.
func TestDBRequiresStore(t *testing.T) {
	s := New(Config{})
	for _, rt := range []struct{ method, path string }{
		{"GET", "/v1/db"},
		{"POST", "/v1/db/facts"},
		{"DELETE", "/v1/db/facts"},
	} {
		rec := doJSON(t, s, nil, rt.method, rt.path, DBMutateRequest{Facts: "R(a | b)"})
		decodeError(t, rec, http.StatusNotFound, CodeUnsupported)
	}
	// Without a store an empty db text still means "the empty database",
	// exactly as before the /v1/db surface existed — and no version is
	// reported, because none exists.
	resp := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)", DB: ""}))
	if resp.Verdict.Result.Certain || resp.DBVersion != nil {
		t.Fatalf("stateless empty-db solve = %+v (version %v), want not certain with no version", resp.Verdict, resp.DBVersion)
	}
}

// TestVerdictCacheSurvivesUnrelatedMutation is the incremental
// invalidation contract: a cached hosted verdict keyed on the query's
// relations outlives writes to OTHER relations and dies on writes to its
// own.
func TestVerdictCacheSurvivesUnrelatedMutation(t *testing.T) {
	s, _ := newStoreServer(t, nil)

	mutate := func(method, facts string) DBMutateResponse {
		t.Helper()
		return decodeMutate(t, doJSON(t, s, nil, method, "/v1/db/facts", DBMutateRequest{Facts: facts}))
	}
	// R(x | 'b') is certain iff every repair keeps a fact with value b:
	// false while block a can choose R(a | c), true once only R(a | b)
	// remains — so recomputation after invalidation is observable.
	solve := func() SolveResponse {
		t.Helper()
		return decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | 'b')"}))
	}

	mutate("POST", "R(a | b) R(a | c) S(s | s)")
	first := solve()
	if first.Cached {
		t.Fatal("first hosted solve must be a cache miss")
	}
	if first.Verdict.Result.Certain {
		t.Fatalf("verdict = %+v, want not certain while R(a | c) is a repair choice", first.Verdict)
	}
	if again := solve(); !again.Cached {
		t.Fatal("second hosted solve must hit the verdict cache")
	}

	// Mutating S cannot change CERTAINTY of a query over R alone: the
	// cache entry survives, but the reported version still moves.
	v2 := mutate("POST", "S(t | t)").Version
	after := solve()
	if !after.Cached {
		t.Fatal("mutating an unrelated relation must not evict the verdict")
	}
	if after.DBVersion == nil || *after.DBVersion != v2 {
		t.Fatalf("cached hosted solve DBVersion = %v, want %d", after.DBVersion, v2)
	}

	// Mutating R must miss AND flip the verdict: with R(a | c) gone the
	// only repair keeps R(a | b), so a stale cached "not certain" here
	// would be a wrong answer, not just a wasted recompute.
	mutate("DELETE", "R(a | c)")
	post := solve()
	if post.Cached {
		t.Fatal("mutating a queried relation must invalidate the cached verdict")
	}
	if !post.Verdict.Result.Certain {
		t.Fatalf("after deleting R(a | c) the verdict must flip to certain, got %+v", post.Verdict)
	}
}

// TestDBReadOnlyDegradation: after a disk fault the server keeps serving
// reads and solves while answering mutations 503 read-only with a
// Retry-After hint.
func TestDBReadOnlyDegradation(t *testing.T) {
	fs := wal.NewFaultFS(wal.OSFS{})
	s, st := newStoreServer(t, fs)

	decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: "R(a | b) R(a | c)"}))

	fs.SetSyncFault(func(string) error { return errors.New("injected: disk on fire") })
	rec := doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: "R(x | y)"})
	body := decodeError(t, rec, http.StatusServiceUnavailable, CodeReadOnly)
	if body.RetryAfterMS <= 0 || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("read-only rejection must hint a retry: body %+v, header %q", body, rec.Header().Get("Retry-After"))
	}
	if ro, _ := st.ReadOnly(); !ro {
		t.Fatal("store must be read-only after the fault")
	}

	// Reads and solves keep serving the last durable version.
	got := decodeDBGet(t, doJSON(t, s, nil, "GET", "/v1/db", nil))
	if !got.ReadOnly || got.Version != 1 || got.NumFacts != 2 {
		t.Fatalf("degraded GET /v1/db = %+v, want read-only at version 1 with 2 facts", got)
	}
	solve := decodeSolve(t, doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y)"}))
	if !solve.Verdict.Result.Certain || solve.DBVersion == nil || *solve.DBVersion != 1 {
		t.Fatalf("degraded hosted solve = %+v (version %v), want certain at version 1", solve.Verdict, solve.DBVersion)
	}
}

// TestBatchHostedDBPinned: batch items with no db text all see one hosted
// snapshot, and per-item results come back as for inline DBs.
func TestBatchHostedDBPinned(t *testing.T) {
	s, _ := newStoreServer(t, nil)
	decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: "R(a | b) R(a | c)"}))

	// R(x | 'b') separates the two: the hosted db can repair to R(a | c)
	// (not certain), the inline db cannot (certain).
	rec := doJSON(t, s, nil, "POST", "/v1/solve/batch", BatchSolveRequest{
		Query: "R(x | 'b')",
		Items: []BatchSolveItem{{}, {DB: "R(a | b)"}},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d, body %s", rec.Code, rec.Body)
	}
	var resp BatchSolveResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decode batch: %v", err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(resp.Results))
	}
	hosted, inline := resp.Results[0], resp.Results[1]
	if hosted.Error != nil || hosted.Verdict == nil || hosted.Verdict.Result.Certain {
		t.Fatalf("hosted item = %+v, want not certain (repair can pick R(a | c))", hosted)
	}
	if inline.Error != nil || inline.Verdict == nil || !inline.Verdict.Result.Certain {
		t.Fatalf("inline item = %+v, want certain", inline)
	}
}

// TestHostedReadsDuringParkedCommit: a write parked inside its fsync holds
// the store's commit lock, and /readyz and a hosted solve must still
// answer at once, from the snapshot before the write.
func TestHostedReadsDuringParkedCommit(t *testing.T) {
	ffs := wal.NewFaultFS(nil)
	s, st := newStoreServer(t, ffs)
	before := decodeMutate(t, doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{
		Facts: "R(a1 | b1) R(a1 | x1) S(b1 | c1) R(a2 | b2) R(a2 | x2) S(b2 | c2)",
	})).Version

	parked, gate := make(chan struct{}), make(chan struct{})
	var parkOnce, releaseOnce sync.Once
	ffs.SetSyncFault(func(string) error {
		parkOnce.Do(func() { close(parked) })
		<-gate
		return nil
	})
	release := func() {
		releaseOnce.Do(func() {
			ffs.SetSyncFault(nil)
			close(gate)
		})
	}
	t.Cleanup(release)

	written := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		written <- doJSON(t, s, nil, "POST", "/v1/db/facts", DBMutateRequest{Facts: "S(x1 | c1)"})
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("the write never reached its fsync")
	}

	type answers struct{ readyz, solve *httptest.ResponseRecorder }
	got := make(chan answers, 1)
	go func() {
		got <- answers{
			readyz: doJSON(t, s, nil, "GET", "/readyz", nil),
			solve:  doJSON(t, s, nil, "POST", "/v1/solve", SolveRequest{Query: "R(x | y), S(y | z)"}),
		}
	}()
	select {
	case a := <-got:
		if a.readyz.Code != http.StatusOK {
			t.Errorf("/readyz during the commit = %d, want 200", a.readyz.Code)
		}
		v := decodeSolve(t, a.solve)
		if v.DBVersion == nil || *v.DBVersion != before || v.Verdict.Outcome != solver.OutcomeNotCertain {
			t.Errorf("hosted solve during the commit: version %v, outcome %v; want version %d, not-certain",
				v.DBVersion, v.Verdict.Outcome, before)
		}
	case <-time.After(time.Second):
		release()
		t.Fatal("/readyz or a hosted solve waited for a commit parked in its fsync")
	}
	release()
	if rec := <-written; rec.Code != http.StatusOK {
		t.Fatalf("parked write = %d, body %s", rec.Code, rec.Body)
	}
	if _, v := st.DB(); v != before+1 {
		t.Errorf("after the commit the store is at version %d, want %d", v, before+1)
	}
}
