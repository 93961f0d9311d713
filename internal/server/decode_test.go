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
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// referenceDecode is how the handlers decoded their bodies before the
// request scanner: encoding/json straight off the size-capped body.
func referenceDecode[T any](body []byte, limit int64) (T, error) {
	var req T
	r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	err := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), r.Body, limit)).Decode(&req)
	return req, err
}

// decodeFunc is the shape of the handlers' decode functions.
type decodeFunc[T any] func(http.ResponseWriter, *http.Request, int64) (T, error)

// handlerDecode runs a handler's decode path on body, announcing its
// length as the Content-Length or, with unknown set, leaving it unknown.
func handlerDecode[T any](decode decodeFunc[T], body []byte, limit int64, unknown bool) (T, error) {
	r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
	if unknown {
		r.ContentLength = -1
		r.Body = io.NopCloser(bytes.NewReader(body))
	}
	return decode(httptest.NewRecorder(), r, limit)
}

// checkDecodeAgrees holds a handler's decode of body to the reference:
// both accept or both reject, with equal values or equal error text.
func checkDecodeAgrees[T any](t *testing.T, decode decodeFunc[T], body []byte, limit int64, unknown bool) {
	t.Helper()
	want, werr := referenceDecode[T](body, limit)
	got, gerr := handlerDecode(decode, body, limit, unknown)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("body %q, limit %d: error %v, reference error %v", body, limit, gerr, werr)
	case werr != nil && werr.Error() != gerr.Error():
		t.Fatalf("body %q, limit %d: error %q, reference error %q", body, limit, gerr, werr)
	case werr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("body %q, limit %d: decoded %+v, reference %+v", body, limit, got, want)
	}
}

// checkFrameAgrees holds the coordinator's framing of body to the
// reference decode: the same accept/reject and error text, the same
// batch-level fields and, item by item, the same queries.
func checkFrameAgrees(t *testing.T, body []byte, limit int64, unknown bool) {
	t.Helper()
	want, werr := referenceDecode[BatchSolveRequest](body, limit)
	f, gerr := handlerDecode(DecodeBatchFrame, body, limit, unknown)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("body %q, limit %d: frame error %v, reference error %v", body, limit, gerr, werr)
	case werr != nil:
		if werr.Error() != gerr.Error() {
			t.Fatalf("body %q, limit %d: frame error %q, reference error %q", body, limit, gerr, werr)
		}
		return
	}
	defer f.Release()
	head := want
	head.Items, head.DB = nil, ""
	got := f.Head
	got.Items = nil
	if !reflect.DeepEqual(got, head) || len(f.Items) != len(want.Items) {
		t.Fatalf("body %q, limit %d: framed %+v with %d items, reference %+v", body, limit, f.Head, len(f.Items), want)
	}
	for i, it := range f.Items {
		if it.Query != want.Items[i].Query {
			t.Fatalf("body %q: item %d framed with query %q, reference %q", body, i, it.Query, want.Items[i].Query)
		}
	}
}

// FuzzRequestDecode is the differential harness of the request scanner:
// on any bytes and any body limit, the handlers' decode of a solve body,
// of a batch body and of a framed batch agrees with encoding/json reading
// the capped body. The seeds cover encoding/json's quirks: case-folded
// names, duplicate keys (the last wins; a second items array is decoded
// over the first one's elements), unknown fields and null, \u escapes with
// surrogate pairs and lone surrogates, raw U+2028 and U+2029 (which
// json.Marshal escapes but a client may send as they are), invalid UTF-8,
// floats and out-of-range integers, non-boolean streams, bytes after the
// first value, and a body over the limit whose value ends before it.
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
		`{"query":"R(x | y)","db":"😀 \ud800 \udc00x é` + "\u2028" + `\/"}`,
		`{"query":"R(x | y)","db":"😀 \ud800 \udc00x é \/"}`,
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
		// Batch bodies.
		`{"items":[{"query":"R(x | y)","db":"R(a | b)"},{"db":"R(c | d)"}],"query":"R(x | y)","db":"R(e | f)","timeout_ms":250,"budget":60,"degrade_samples":-1,"sample_seed":-7,"shards":4,"stream":true,"if_db_version":3}`,
		`{"items":[{"query":"a","db":"b"}],"items":[{"db":"c"}]}`,
		`{"items":[{"query":"a"},{"query":"b"}],"items":[{"db":"c"}]}`,
		`{"items":[]}`, `{"items":[{}]}`, `{"items":null}`, `{"items":[null]}`, `{"items":{}}`, `{"items":[{"query":"a"},]}`,
		`{"Items":[{"query":"a"}]}`, `{"items":[{"Query":"a","DB":"b"}]}`,
		`{"items":[{"query":"a","extra":1}]}`, `{"items":[{"query":"a"}],"extra":[1]}`,
		`{"items":[{"query":"a","query":"b","db":"c","db":""}]}`,
		`{"items":[{"query":"a"}],"stream":1}`, `{"items":[{"query":"a"}],"stream":null}`,
		`{"items":[{"query":"a"}],"stream":true,"stream":false}`, `{"stream":tru}`, `{"stream":truex}`,
		`{"items":[{"query":"a"}],"shards":1.0}`, `{"shards":-1}`, `{"shards":"2"}`,
		`{"items":[{"query":"\ud83d\ude00 \u00e9 \u2028","db":"\ud800"}]}`,
		`{"items":[{"query":"é` + "\u2028" + `","db":"` + "\u2029" + `"}],"query":"` + "\u2028" + `"}`,
		`{"items":[{"query":"\u003c\u0026\u003e","db":"R(a | b)\nR(a | c)"}],"db":"\t"}`,
		"{\"items\":[{\"query\":\"a\",\"db\":\"\xff\"}]}",
		`{"items":[{"query":"a"}]} trailing`, `{"items":[{"query":"a"}]}{"items":[]}`,
		`{"items":[{"query":"a","db":"` + strings.Repeat("R(a | b)\n", 40) + `"}]}`,
	} {
		f.Add([]byte(seed), uint8(0), false)
		f.Add([]byte(seed), uint8(20), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint8, unknown bool) {
		lim := int64(limit)
		if lim == 0 {
			lim = 8 << 20 // the server's default MaxBodyBytes
		}
		checkDecodeAgrees(t, DecodeSolveRequest, body, lim, unknown)
		checkDecodeAgrees(t, decodeBatchRequest, body, lim, unknown)
		checkFrameAgrees(t, body, lim, unknown)
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
		if !bufs.scan(func(s *reqScanner) bool { return s.solve(&got) }) {
			t.Fatalf("the scanner gave up on %s", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanned %s to %+v, json.Unmarshal gives %+v", body, got, want)
		}
		checkDecodeAgrees(t, DecodeSolveRequest, body, 8<<20, i%3 == 0)
	}
}

// randomBatch draws a batch request of up to five items, any field of it
// possibly empty.
func randomBatch(r *rand.Rand) BatchSolveRequest {
	req := BatchSolveRequest{
		TimeoutMS: randomInt(r), Budget: randomInt(r),
		DegradeSamples: int(randomInt(r)), SampleSeed: randomInt(r),
		Shards: int(randomInt(r)), Stream: r.Intn(2) == 0,
	}
	if r.Intn(2) == 0 {
		req.Query = randomString(r)
	}
	if r.Intn(2) == 0 {
		req.DB = randomString(r)
	}
	if r.Intn(2) == 0 {
		v := uint64(randomInt(r))
		req.IfDBVersion = &v
	}
	for n := r.Intn(6); n > 0; n-- {
		var it BatchSolveItem
		if r.Intn(4) > 0 {
			it.Query = randomString(r)
		}
		if r.Intn(4) > 0 {
			it.DB = randomString(r)
		}
		req.Items = append(req.Items, it)
	}
	return req
}

// TestMarshaledBatchRequestsStayOnScanner: every body json.Marshal emits
// for a BatchSolveRequest, and the one a json.Encoder emits with its
// newline, is decoded by the scanner to the value json.Unmarshal gives,
// and framed without a fallback; the sub-batch of all its items decodes to
// the same request, streaming, and stays on the scanner too.
func TestMarshaledBatchRequestsStayOnScanner(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		req := randomBatch(r)
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
		var want BatchSolveRequest
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		bufs := &decodeBufs{body: body}
		var got BatchSolveRequest
		if !bufs.scan(func(s *reqScanner) bool { return s.batch(&got, nil) }) {
			t.Fatalf("the scanner gave up on %s", body)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanned %s to %+v, json.Unmarshal gives %+v", body, got, want)
		}
		f := &BatchFrame{}
		if !bufs.scan(func(s *reqScanner) bool { return s.batch(&f.Head, f) }) {
			t.Fatalf("the framing scan gave up on %s", body)
		}
		checkDecodeAgrees(t, decodeBatchRequest, body, 8<<20, i%3 == 0)
		if len(want.Items) == 0 {
			continue
		}
		idxs := make([]int, len(f.Items))
		for k := range idxs {
			idxs[k] = k
		}
		sub := f.AppendSubBatch(nil, idxs)
		var gotSub BatchSolveRequest
		if !(&decodeBufs{body: sub}).scan(func(s *reqScanner) bool { return s.batch(&gotSub, nil) }) {
			t.Fatalf("the scanner gave up on the sub-batch %s", sub)
		}
		want.Stream = true
		if !reflect.DeepEqual(gotSub, want) {
			t.Fatalf("sub-batch %s of %s decodes to %+v, want %+v", sub, body, gotSub, want)
		}
	}
}

// fillValue sets v, and everything it holds, to values that are not zero
// and differ from field to field, and fails on a kind it has no value for.
func fillValue(t *testing.T, v reflect.Value, n int) {
	t.Helper()
	switch {
	case v.Kind() == reflect.String:
		v.SetString("R" + strconv.Itoa(n) + "(a | b)")
	case v.CanInt():
		v.SetInt(int64(-n))
	case v.CanUint():
		v.SetUint(uint64(n))
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
	case v.Kind() == reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillValue(t, v.Elem(), n)
	case v.Kind() == reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillValue(t, v.Index(i), 100*n+i)
		}
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillValue(t, v.Field(i), 10*n+i+1)
		}
	default:
		t.Fatalf("no value to fill a %s with", v.Type())
	}
}

// TestSubBatchCarriesEveryField guards AppendSubBatch, which writes the
// batch-level members by hand, against a field added to BatchSolveRequest
// that it would drop: a request with every field set, framed from its
// json.Marshal body and from a body only encoding/json reads ("Items"),
// gives a sub-batch that decodes back to it, streaming. A new field also
// makes the scanner fall back on its key, so the first body must stay on
// the scanner.
func TestSubBatchCarriesEveryField(t *testing.T) {
	var req BatchSolveRequest
	fillValue(t, reflect.ValueOf(&req).Elem(), 0)
	req.Stream = false
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := req
	want.Stream = true
	folded := bytes.Replace(body, []byte(`{"items":`), []byte(`{"Items":`), 1)
	for k, b := range [][]byte{body, folded} {
		f, err := handlerDecode(DecodeBatchFrame, b, 8<<20, false)
		if err != nil {
			t.Fatal(err)
		}
		scanned := f.bufs != nil
		idxs := make([]int, len(f.Items))
		for i := range idxs {
			idxs[i] = i
		}
		sub := f.AppendSubBatch(nil, idxs)
		f.Release()
		var got BatchSolveRequest
		if err := json.Unmarshal(sub, &got); err != nil {
			t.Fatalf("sub-batch %s: %v", sub, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("sub-batch %s of %s decodes to %+v, want %+v", sub, b, got, want)
		}
		if scanned != (k == 0) {
			t.Fatalf("body %s: framed by the scanner %v, want %v", b, scanned, k == 0)
		}
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
