package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/cqa-go/certainty/internal/cq"
	"github.com/cqa-go/certainty/internal/db"
	"github.com/cqa-go/certainty/internal/emit"
	"github.com/cqa-go/certainty/internal/solver"
)

// postRaw posts body to path on s as it is.
func postRaw(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, bytes.NewReader(body)))
	return rec
}

// typedError checks that a non-200 rec carries a typed ErrorBody with one
// of codes, served with the status StatusForCode maps it to, so a 500
// carries internal and nothing else does.
func typedError(t *testing.T, rec *httptest.ResponseRecorder, codes ...string) ErrorBody {
	t.Helper()
	var body ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("status %d with an untyped body %q: %v", rec.Code, rec.Body, err)
	}
	known := false
	for _, c := range codes {
		known = known || body.Code == c
	}
	if !known || StatusForCode(body.Code) != rec.Code {
		t.Fatalf("status %d carries error code %q", rec.Code, body.Code)
	}
	return body
}

// referenceRequest decodes body as encoding/json reads the first value of
// a request body, reporting whether it decodes.
func referenceRequest(body []byte, v any) bool {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v) == nil
}

func conclusiveOutcome(o solver.Outcome) bool {
	return o == solver.OutcomeCertain || o == solver.OutcomeNotCertain
}

// FuzzServerSolve drives POST /v1/solve through httptest on a stateless
// and a hosted server, with fuzzed raw bodies and with bodies marshaled
// from fuzzed query text, database text, limits and if_db_version (set
// when non-negative). Every response must be a typed envelope, nothing may
// panic, a 500 may only carry code internal, and a conclusive verdict of
// an inline solve must equal Plan.SolveCtx on db.Parse of the same text.
func FuzzServerSolve(f *testing.F) {
	f.Add([]byte(nil), "R(x | y), S(y | z)", "R(a | b) S(b | c) R(a | b2)", int64(0), int64(0), 0, int64(0), int64(-1))
	f.Add([]byte(nil), "R0(x | y), S0(y, z | x)", "R0(x1 | A) R0(x1 | B) S0(A, z1 | x1) S0(B, z1 | x2) R0(x2 | A) S0(A, z2 | x2)", int64(50), int64(60), 4, int64(3), int64(-1))
	f.Add([]byte(nil), "R(x | y), R(y | z)", "R(a | b)", int64(-5), int64(-1), -1, int64(-9), int64(-1))
	f.Add([]byte(nil), "R(x | 'A')", "", int64(0), int64(1<<40), 1<<30, int64(0), int64(1))
	f.Add([]byte(nil), "R(x", "R(a | b", int64(0), int64(0), 0, int64(0), int64(0))
	f.Add([]byte(`{"query":"R(x | y)","db":"R(a | b)\nR(a | c)"} trailing`), "", "", int64(0), int64(0), 0, int64(0), int64(-1))
	f.Add([]byte(`{"QUERY":"R(x | y)","db":"R(a | b)","if_db_version":null,"extra":[1]}`), "", "", int64(0), int64(0), 0, int64(0), int64(-1))
	f.Add([]byte(`{"query":"R(x | y)","budget":1.5}`), "", "", int64(0), int64(0), 0, int64(0), int64(-1))
	f.Add([]byte(`{"query":"R(x | y)","db":"R(a | b)\u0000"}`), "", "", int64(0), int64(0), 0, int64(0), int64(-1))
	servers := fuzzServers(f)
	f.Fuzz(func(t *testing.T, raw []byte, query, dbText string, timeoutMS, budget int64, samples int, seed, ifVersion int64) {
		if len(raw) > 4096 || len(query) > 160 || len(dbText) > 2048 {
			t.Skip("input beyond the fuzzed sizes")
		}
		body := raw
		if len(raw) == 0 {
			req := SolveRequest{Query: query, DB: dbText, TimeoutMS: timeoutMS, Budget: budget, DegradeSamples: samples, SampleSeed: seed}
			if ifVersion >= 0 {
				v := uint64(ifVersion)
				req.IfDBVersion = &v
			}
			var err error
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		var req SolveRequest
		decodes := referenceRequest(body, &req)
		for i, s := range servers {
			rec := postRaw(s, "/v1/solve", body)
			if rec.Code != http.StatusOK {
				typedError(t, rec, CodeMalformed, CodeUnsupported, CodePolicy, CodeShed, CodeShutdown, CodeInternal, CodeVersionFenced)
				continue
			}
			var resp SolveResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("solve response %q: %v", rec.Body, err)
			}
			if !decodes {
				t.Fatalf("200 for body %q, which encoding/json rejects", body)
			}
			hosted := i == 1 && req.DB == ""
			if hosted != (resp.DBVersion != nil) {
				t.Fatalf("server %d, db %q: db_version %v", i, req.DB, resp.DBVersion)
			}
			if hosted || !conclusiveOutcome(resp.Verdict.Outcome) {
				continue
			}
			p, err := solver.CompilePlan(cq.MustParseQuery(req.Query))
			if err != nil {
				t.Fatalf("a solved query does not compile: %v", err)
			}
			want, err := p.SolveCtx(context.Background(), db.MustParse(req.DB), solver.Options{Budget: 1 << 16, Timeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			if conclusiveOutcome(want.Outcome) && want.Outcome != resp.Verdict.Outcome {
				t.Fatalf("query %q, db %q: served %v, Plan.SolveCtx on a fresh parse says %v", req.Query, req.DB, resp.Verdict.Outcome, want.Outcome)
			}
		}
	})
}

// FuzzServerCompile drives POST /v1/compile through httptest on a
// stateless and a hosted server, with fuzzed raw bodies and with bodies
// marshaled from fuzzed query text and dialect. Every response must be a
// typed envelope, nothing may panic, a 500 may only carry code internal,
// a 200 must carry the program Plan.EmitSQL or Plan.EmitDatalog gives for
// the query, and a 422 unsupported for a query that compiles must carry
// its class.
func FuzzServerCompile(f *testing.F) {
	f.Add([]byte(nil), "R(x | y), S(y | z)", "sql")
	f.Add([]byte(nil), "R(x | y), S(y | z), T(z | w)", "datalog")
	f.Add([]byte(nil), "R0(x | y), S0(y, z | x)", "")
	f.Add([]byte(nil), "R(x | y), R(y | z)", "sql")
	f.Add([]byte(nil), "R(x | 'A'), S('A' | x)", "cobol")
	f.Add([]byte(nil), "R(x", "sql")
	f.Add([]byte(`{"query":"R(x | y)","dialect":"datalog"} junk`), "", "")
	f.Add([]byte(`{"Query":"R(x | y)","DIALECT":"sql"}`), "", "")
	servers := fuzzServers(f)
	f.Fuzz(func(t *testing.T, raw []byte, query, dialect string) {
		if len(raw) > 4096 || len(query) > 160 || len(dialect) > 32 {
			t.Skip("input beyond the fuzzed sizes")
		}
		body := raw
		if len(raw) == 0 {
			var err error
			if body, err = json.Marshal(CompileRequest{Query: query, Dialect: dialect}); err != nil {
				t.Fatal(err)
			}
		}
		var req CompileRequest
		var p *solver.Plan
		if referenceRequest(body, &req) {
			if q, err := cq.ParseQuery(req.Query); err == nil {
				p, _ = solver.CompilePlan(q)
			}
		}
		for _, s := range servers {
			rec := postRaw(s, "/v1/compile", body)
			if rec.Code != http.StatusOK {
				e := typedError(t, rec, CodeMalformed, CodeUnsupported, CodeShutdown, CodeInternal)
				if e.Code == CodeUnsupported && p != nil && e.Class != p.Class.Code() {
					t.Fatalf("query %q: unsupported with class %q, want %q", req.Query, e.Class, p.Class.Code())
				}
				continue
			}
			var resp CompileResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("compile response %q: %v", rec.Body, err)
			}
			if p == nil {
				t.Fatalf("200 for body %q, whose query does not compile", body)
			}
			served, want, err := req.Dialect, emit.Program{}, error(nil)
			switch served {
			case "", emit.DialectSQL:
				served = emit.DialectSQL
				want, err = p.EmitSQL()
			case emit.DialectDatalog:
				want, err = p.EmitDatalog()
			default:
				t.Fatalf("200 for dialect %q", served)
			}
			if err != nil {
				t.Fatalf("query %q: 200, but the plan emits no program: %v", req.Query, err)
			}
			if resp.Program != want.Text || resp.Class != p.Class || resp.Dialect != served {
				t.Fatalf("query %q, dialect %q: served %s program %q of class %v, want %q of class %v",
					req.Query, req.Dialect, resp.Dialect, resp.Program, resp.Class, want.Text, p.Class)
			}
		}
	})
}
