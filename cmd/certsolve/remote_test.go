package main

import (
	"net/http/httptest"
	"testing"

	"github.com/cqa-go/certainty/internal/server"
)

// TestRunRemote drives the -remote path against an in-process certd
// handler: a clean solve, an option conflict, and a permanent server-side
// rejection (surfaced without retries as an error).
func TestRunRemote(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	dbPath := writeTemp(t, "db.txt", confDB)

	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "auto", true, false, "", 0, 0, false, ts.URL, false); err != nil {
		t.Errorf("remote solve: %v", err)
	}
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "brute", false, false, "", 0, 0, false, ts.URL, false); err == nil {
		t.Error("-remote with -method brute should fail")
	}
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "auto", false, true, "", 0, 0, false, ts.URL, false); err == nil {
		t.Error("-remote with -count should fail")
	}
	// A self-join parses locally but the server rejects it as unsupported;
	// the client must surface that as a permanent error.
	if err := run(bg(), "R(x | y), R(y | x)", "", dbPath, "auto", false, false, "", 0, 0, false, ts.URL, false); err == nil {
		t.Error("unsupported query should surface the server rejection")
	}
}
