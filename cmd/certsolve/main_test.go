package main

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const confDB = `
C(PODS, 2016 | Rome)
C(PODS, 2016 | Paris)
C(KDD, 2017 | Rome)
R(PODS | A)
R(KDD | A)
R(KDD | B)
`

func bg() context.Context { return context.Background() }

func TestRunMethods(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	for _, method := range []string{"auto", "brute", "falsify"} {
		if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, method, true, true, "", 0, 0, false, "", false); err != nil {
			t.Errorf("method %s: %v", method, err)
		}
	}
}

func TestRunQueryFile(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	qPath := writeTemp(t, "q.cq", "R(x | 'A')")
	if err := run(bg(), "", qPath, dbPath, "auto", false, false, "", 0, 0, false, "", false); err != nil {
		t.Error(err)
	}
}

func TestRunAnswers(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	if err := run(bg(), "R(x | r)", "", dbPath, "auto", false, false, "x, r", 0, 0, false, "", false); err != nil {
		t.Error(err)
	}
	if err := run(bg(), "R(x | r)", "", dbPath, "auto", false, false, "zzz", 0, 0, false, "", false); err == nil {
		t.Error("bad free variable should fail")
	}
}

func TestRunSharded(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "auto", true, false, "", 0, 0, true, "", false); err != nil {
		t.Error(err)
	}
	// Sharding only exists in the span-instrumented auto dispatcher.
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "brute", false, false, "", 0, 0, true, "", false); err == nil {
		t.Error("-sharded with -method brute should fail")
	}
}

func TestRunTimeout(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	// Generous timeout: completes normally.
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "falsify", false, false, "", time.Second, 0, false, "", false); err != nil {
		t.Errorf("generous timeout: %v", err)
	}
}

func TestRunBudget(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	// A one-step budget trips the explicit search methods...
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "falsify", false, false, "", 0, 1, false, "", false); err == nil {
		t.Error("one-step budget on -method falsify should report an aborted search")
	}
	// ...while auto degrades to an unknown verdict instead of failing.
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "auto", false, false, "", 0, 1, false, "", false); err != nil {
		t.Errorf("auto with a tiny budget should degrade, got %v", err)
	}
}

func TestRunCanceled(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A pre-canceled context (the SIGINT path) must not hang; auto degrades,
	// explicit methods report the abort.
	if err := run(ctx, "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "auto", false, false, "", 0, 0, false, "", false); err != nil {
		t.Errorf("auto under canceled context: %v", err)
	}
}

func TestRunTrace(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "auto", false, false, "", 0, 0, false, "", true); err != nil {
		t.Errorf("-trace with auto: %v", err)
	}
	// -trace only makes sense where the span-instrumented dispatcher runs.
	if err := run(bg(), "C(x, y | 'Rome'), R(x | 'A')", "", dbPath, "brute", false, false, "", 0, 0, false, "", true); err == nil {
		t.Error("-trace with -method brute should fail")
	}
	if err := run(bg(), "R(x | y)", "", dbPath, "auto", false, false, "", 0, 0, false, "http://127.0.0.1:1", true); err == nil {
		t.Error("-trace with -remote should fail")
	}
}

func TestRunErrors(t *testing.T) {
	dbPath := writeTemp(t, "db.txt", confDB)
	if err := run(bg(), "", "", dbPath, "auto", false, false, "", 0, 0, false, "", false); err == nil {
		t.Error("missing query should fail")
	}
	if err := run(bg(), "R(x | y)", "", "", "auto", false, false, "", 0, 0, false, "", false); err == nil {
		t.Error("missing db should fail")
	}
	if err := run(bg(), "R(x", "", dbPath, "auto", false, false, "", 0, 0, false, "", false); err == nil {
		t.Error("bad query should fail")
	}
	if err := run(bg(), "R(x | y)", "", dbPath, "zzz", false, false, "", 0, 0, false, "", false); err == nil {
		t.Error("bad method should fail")
	}
	if err := run(bg(), "R(x | y)", "", "/nonexistent/db", "auto", false, false, "", 0, 0, false, "", false); err == nil {
		t.Error("missing db file should fail")
	}
	badDB := writeTemp(t, "bad.txt", "R(x |")
	if err := run(bg(), "R(x | y)", "", badDB, "auto", false, false, "", 0, 0, false, "", false); err == nil {
		t.Error("bad db syntax should fail")
	}
	if err := run(bg(), "", "/nonexistent/q", dbPath, "auto", false, false, "", 0, 0, false, "", false); err == nil {
		t.Error("missing query file should fail")
	}
}
