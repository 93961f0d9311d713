package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/wal"
)

// The /v1/db surface: the durable hosted database. Mutations go through
// the WAL store (internal/wal) — serialized, written ahead, fsynced per
// the store's policy, and only then published — so a 200 means the change
// survives a crash. Reads never block on writes: GET /v1/db and hosted
// solves use the immutable published snapshot.
//
// Mutations deliberately bypass the solve admission queue: they do no
// search work, and the store bounds them by serializing its group commit.
// They still respect draining and register with the drain WaitGroup so
// shutdown waits for in-flight commits to finish writing their responses.

// requireStore resolves the hosted store, answering 404 with a hint when
// the server runs stateless.
func (s *Server) requireStore(w http.ResponseWriter) *wal.Store {
	if s.cfg.Store == nil {
		s.writeError(w, http.StatusNotFound, CodeUnsupported,
			"no hosted database: start certd with -data-dir to enable /v1/db")
		return nil
	}
	return s.cfg.Store
}

func (s *Server) handleDBGet(w http.ResponseWriter, r *http.Request) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	d, v := st.DB()
	ro, _ := st.ReadOnly()
	resp := DBGetResponse{
		Version:   v,
		NumFacts:  d.Len(),
		NumBlocks: d.NumBlocks(),
		Relations: d.Relations(),
		Digest:    d.Digest(),
		ReadOnly:  ro,
	}
	if r.URL.Query().Get("facts") == "1" {
		resp.Facts = d.String()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDBInsert(w http.ResponseWriter, r *http.Request) {
	s.handleDBMutate(w, r, true)
}

func (s *Server) handleDBDelete(w http.ResponseWriter, r *http.Request) {
	s.handleDBMutate(w, r, false)
}

func (s *Server) handleDBMutate(w http.ResponseWriter, r *http.Request, insert bool) {
	st := s.requireStore(w)
	if st == nil {
		return
	}
	if s.draining.Load() {
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, "server is draining")
		return
	}
	var req DBMutateRequest
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "body: "+err.Error())
		return
	}
	parsed, err := db.Parse(req.Facts)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "facts: "+err.Error())
		return
	}
	facts := parsed.Facts()
	if len(facts) == 0 {
		s.writeError(w, http.StatusBadRequest, CodeMalformed, "facts: empty fact list")
		return
	}
	ifVersion := int64(-1)
	if req.IfVersion != nil {
		ifVersion = int64(*req.IfVersion)
	}

	// Count mutations into the drain WaitGroup so Drain waits for the
	// commit (and this response) to finish.
	s.wg.Add(1)
	defer s.wg.Done()

	var ins, del []db.Fact
	if insert {
		ins = facts
	} else {
		del = facts
	}
	// Nothing to invalidate after the commit: the new snapshot's touched
	// relations carry new versions, which the verdict cache keys on, and
	// its touched shards new fingerprints, which the shard memo keys on.
	version, applied, err := st.Mutate(ins, del, ifVersion)
	if err != nil {
		s.writeMutateError(w, err)
		return
	}
	op := "insert"
	if !insert {
		op = "delete"
	}
	s.logf("db %s: %d/%d facts applied, version %d", op, applied, len(facts), version)
	writeJSON(w, http.StatusOK, DBMutateResponse{Version: version, Applied: applied})
}

// writeMutateError maps store errors onto the wire taxonomy.
func (s *Server) writeMutateError(w http.ResponseWriter, err error) {
	var conflict *wal.ConflictError
	switch {
	case errors.As(err, &conflict):
		s.writeErrorBody(w, http.StatusConflict, &ErrorBody{
			Code:    CodeConflict,
			Message: err.Error(),
			Version: conflict.Have,
		})
	case errors.Is(err, wal.ErrConflict):
		s.writeError(w, http.StatusConflict, CodeConflict, err.Error())
	case errors.Is(err, wal.ErrReadOnly):
		s.writeError(w, http.StatusServiceUnavailable, CodeReadOnly, err.Error())
	case errors.Is(err, wal.ErrClosed):
		s.writeError(w, http.StatusServiceUnavailable, CodeShutdown, err.Error())
	default:
		// Validation failures (bad facts, signature conflicts): the same
		// request can never succeed.
		s.writeError(w, http.StatusBadRequest, CodeMalformed, err.Error())
	}
}
