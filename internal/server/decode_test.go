package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"
)

// referenceDecode is how /v1/solve decoded its body before the request
// scanner: encoding/json straight off the size-capped body.
func referenceDecode(body []byte, limit int64) (SolveRequest, error) {
	var req SolveRequest
	r := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
	err := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)).Decode(&req)
	return req, err
}

// handlerDecode runs the handler's decode path on body, announcing its
// length as the Content-Length or, with unknown set, leaving it unknown.
func handlerDecode(body []byte, limit int64, unknown bool) (SolveRequest, error) {
	r := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(body))
	if unknown {
		r.ContentLength = -1
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return DecodeSolveRequest(httptest.NewRecorder(), r, limit)
}

// checkDecodeAgrees holds the handler's decode of body to the reference:
// both accept or both reject, with equal values or equal error text.
func checkDecodeAgrees(t *testing.T, body []byte, limit int64, unknown bool) {
	t.Helper()
	want, werr := referenceDecode(body, limit)
	got, gerr := handlerDecode(body, limit, unknown)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("body %q, limit %d: error %v, reference error %v", body, limit, gerr, werr)
	case werr != nil && werr.Error() != gerr.Error():
		t.Fatalf("body %q, limit %d: error %q, reference error %q", body, limit, gerr, werr)
	case werr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q, limit %d: decoded %+v, reference %+v", body, limit, got, want)
	}
}

// FuzzRequestDecode is the differential harness of the request scanner:
// on any bytes and any body limit, the handler's decode agrees with
// encoding/json reading the capped body. The seeds cover encoding/json's
// quirks: case-folded names, duplicate keys (the last wins), unknown
// fields and null, \u escapes with surrogate pairs and lone surrogates,
// invalid UTF-8, floats and out-of-range integers, bytes after the first
// value, and a body over the limit whose value ends before it.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		``, ` `, `[]`, `"s"`, `123`, `null`, `{}`, ` { } `, `{"query":"R(x | y)"`, `{"query":"R(x | y)",}`,
		`{"query":"R(x | y)","db":"R(a | b)\nR(a | c)"}`,
		`{"query":"R(x | y)","db":"R(a | b)","timeout_ms":250,"budget":60,"degrade_samples":-1,"sample_seed":-7,"if_db_version":0}`,
		`{"QUERY":"R(x | y)","Db":"R(a | b)"}`,
		`{"query":"q","ſample_seed":3}`,
		`{"query":"a","query":"b"}`,
		`{"budget":1,"budget":2}`,
		`{"query":"a","extra":{"x":[1,2,"}"]},"db":null}`,
		`{"query":null,"if_db_version":null}`,
		`{"query":"R(x | y)","db":"😀 \ud800 \udc00x é \/"}`,
		`{"query":"R(x | y)"}`,
		"{\"query\":\"\xff\xfe\",\"db\":\"caf\xc3\xa9\"}",
		"{\"query\":\"tab\there\"}",
		`{"timeout_ms":1.5}`, `{"budget":1e3}`, `{"budget":-0}`, `{"budget":01}`,
		`{"sample_seed":9223372036854775807}`, `{"sample_seed":9223372036854775808}`,
		`{"sample_seed":-9223372036854775808}`, `{"sample_seed":-9223372036854775809}`,
		`{"if_db_version":18446744073709551615}`, `{"if_db_version":18446744073709551616}`, `{"if_db_version":-1}`,
		`{"degrade_samples":"5"}`, `{"budget":true}`,
		`{"query":"a"} trailing bytes`, `{"query":"a"}{"query":"b"}`, "{\"query\":\"a\"}\n",
		`{"query":"a"}` + strings.Repeat(" ", 300),
		`{"query":"` + strings.Repeat("R(a | b) ", 40) + `"}`,
	} {
		f.Add([]byte(seed), uint8(0), false)
		f.Add([]byte(seed), uint8(20), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint8, unknown bool) {
		lim := int64(limit)
		if lim == 0 {
			lim = 8 << 20 // the server's default MaxBodyBytes
		}
		checkDecodeAgrees(t, body, lim, unknown)
	})
}

// randomString draws a string of arbitrary bytes: ASCII, multi-byte runes,
// control characters, the bytes JSON escapes and invalid UTF-8.
func randomString(r *rand.Rand) string {
	var b []byte
	for n := r.Intn(40); n > 0; n-- {
		switch r.Intn(6) {
		case 0:
			b = append(b, byte(r.Intn(0x20)))
		case 1:
			b = append(b, `"\<>&/`[r.Intn(6)])
		case 2:
			b = utf8.AppendRune(b, rune(r.Intn(0x110000)))
		case 3:
			b = append(b, byte(0x80+r.Intn(0x80)))
		default:
			b = append(b, byte(0x20+r.Intn(0x60)))
		}
	}
	return string(b)
}

// randomInt draws from the edges and the middle of the int64 range.
func randomInt(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return []int64{math.MinInt64, math.MaxInt64, -1, 1}[r.Intn(4)]
	default:
		return r.Int63() - r.Int63()
	}
}

// TestMarshaledSolveRequestsStayOnScanner: every body json.Marshal emits
// for a SolveRequest, and the one a json.Encoder emits with its newline,
// is decoded by the scanner, to the value json.Unmarshal gives.
func TestMarshaledSolveRequestsStayOnScanner(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		req := SolveRequest{
			Query: randomString(r), DB: randomString(r),
			TimeoutMS: randomInt(r), Budget: randomInt(r),
			DegradeSamples: int(randomInt(r)), SampleSeed: randomInt(r),
		}
		if r.Intn(2) == 0 {
			v := uint64(randomInt(r))
			req.IfDBVersion = &v
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 1 {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(req); err != nil {
				t.Fatal(err)
			}
			body = buf.Bytes()
		}
		var want SolveRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		bufs := &decodeBufs{body: body}
		var got SolveRequest
		if !bufs.scan(&got) {
			t.Fatalf("the scanner gave up on %s", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanned %s to %+v, json.Unmarshal gives %+v", body, got, want)
		}
		checkDecodeAgrees(t, body, 8<<20, i%3 == 0)
	}
}

// firstReadReader serves body and records the room offered to its first
// Read, which is what readBody reserved before any byte arrived.
type firstReadReader struct {
	body  *bytes.Reader
	first int
}

func (r *firstReadReader) Read(p []byte) (int, error) {
	if r.first < 0 {
		r.first = len(p)
	}
	return r.body.Read(p)
}

// TestReadBodyReservesLittleUpFront checks that a declared length reserves
// at most readAhead bytes before the body arrives, however large the
// declaration, while a body of any length is still read whole.
func TestReadBodyReservesLittleUpFront(t *testing.T) {
	for _, n := range []int{10, readAhead, 3 * readAhead} {
		for _, declared := range []int64{int64(n), 8 << 20} {
			body := bytes.Repeat([]byte("x"), n)
			r := &firstReadReader{body: bytes.NewReader(body), first: -1}
			got, err := readBody(r, nil, declared)
			if err != nil || !bytes.Equal(got, body) {
				t.Fatalf("%d bytes declared as %d: read %d bytes, error %v", n, declared, len(got), err)
			}
			if r.first > readAhead+1 {
				t.Fatalf("%d bytes declared as %d: %d bytes reserved up front, want at most %d", n, declared, r.first, readAhead+1)
			}
		}
	}
}
