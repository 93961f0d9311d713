package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"
)

// DecodeSolveRequest reads the body of a POST /v1/solve request, at most
// limit bytes of it, and decodes it. It accepts and rejects exactly what
// json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode does, with
// the same error text, and decodes the same value: the first JSON value of
// the body (whatever follows it is ignored), from at most limit bytes.
//
// The body is read once into a pooled buffer. A body json.Marshal emits
// for a SolveRequest is decoded by one scan that unescapes query and db
// into strings of their own; any other body is decoded from the same
// bytes by encoding/json, which stays the reference. The coordinator of
// internal/fleet decodes its solve bodies with it too.
func DecodeSolveRequest(w http.ResponseWriter, r *http.Request, limit int64) (SolveRequest, error) {
	bufs, rerr := readRequest(w, r, limit)
	defer bufs.release()
	var req SolveRequest
	if bufs.scan(func(s *reqScanner) bool { return s.solve(&req) }) {
		return req, nil
	}
	req = SolveRequest{}
	err := bufs.fallback(rerr, &req)
	return req, err
}

// decodeBatchRequest is DecodeSolveRequest for the body of a POST
// /v1/solve/batch request: the same read, scanner and fallback, with the
// same agreement with encoding/json.
func decodeBatchRequest(w http.ResponseWriter, r *http.Request, limit int64) (BatchSolveRequest, error) {
	bufs, rerr := readRequest(w, r, limit)
	defer bufs.release()
	var req BatchSolveRequest
	if bufs.scan(func(s *reqScanner) bool { return s.batch(&req, nil) }) {
		return req, nil
	}
	req = BatchSolveRequest{}
	err := bufs.fallback(rerr, &req)
	return req, err
}

// BatchFrame is a batch request as a fleet coordinator reads it, to pass
// its items on to workers without decoding them: the batch-level fields
// decoded, except db, and every item kept as JSON text with only its query
// decoded, for placement. AppendSubBatch writes sub-batches from that text.
type BatchFrame struct {
	// Head holds the batch-level fields; its Items and DB are empty.
	Head BatchSolveRequest
	// Items holds the items in body order.
	Items []FramedItem
	// query and db are the JSON text of the batch-level query and db, nil
	// or "" when the body has none.
	query, db []byte
	// bufs holds the body that the texts view until Release; nil after a
	// fallback, whose texts are marshaled copies.
	bufs *decodeBufs
}

// FramedItem is one item of a BatchFrame.
type FramedItem struct {
	// Query is the item's own query, "" when it has none.
	Query string
	// text is the item's JSON object.
	text []byte
}

// DecodeBatchFrame reads the body of a POST /v1/solve/batch request as
// decodeBatchRequest does, accepting and rejecting the same bodies with
// the same error text, and frames it. A body the scanner covers keeps its
// item text as sent: the scan decodes each item's query, checks each db
// string without unescaping it and records where each item lies in the
// body, which the frame keeps until Release. Any other body is decoded by
// encoding/json and its items are re-marshaled one by one, so sub-batches
// are built one way whichever path the body took.
func DecodeBatchFrame(w http.ResponseWriter, r *http.Request, limit int64) (*BatchFrame, error) {
	bufs, rerr := readRequest(w, r, limit)
	f := &BatchFrame{bufs: bufs}
	if bufs.scan(func(s *reqScanner) bool { return s.batch(&f.Head, f) }) {
		return f, nil
	}
	var req BatchSolveRequest
	err := bufs.fallback(rerr, &req)
	bufs.release()
	if err != nil {
		return nil, err
	}
	// Marshaling strings cannot fail.
	*f = BatchFrame{Head: req, Items: make([]FramedItem, len(req.Items))}
	f.query, _ = json.Marshal(req.Query)
	f.db, _ = json.Marshal(req.DB)
	f.Head.Items, f.Head.DB = nil, ""
	for i, it := range req.Items {
		text, _ := json.Marshal(it)
		f.Items[i] = FramedItem{Query: it.Query, text: text}
	}
	return f, nil
}

// Release returns the body the frame views to the pool. The frame is not
// used after it.
func (f *BatchFrame) Release() {
	if f.bufs != nil {
		f.bufs.release()
		f.bufs = nil
	}
}

// AppendSubBatch appends to dst a streaming batch request of the items at
// idxs: their JSON text as the frame holds it, and the batch-level fields
// once, so an item without a query or db takes the batch's as it would
// have in the whole batch.
func (f *BatchFrame) AppendSubBatch(dst []byte, idxs []int) []byte {
	// The items with their commas, the batch-level strings, and room for
	// the names and numbers of the other members.
	n := len(f.query) + len(f.db) + 256
	for _, i := range idxs {
		n += len(f.Items[i].text) + 1
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, `{"items":[`...)
	for k, i := range idxs {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, f.Items[i].text...)
	}
	dst = append(dst, ']')
	h := &f.Head
	dst = appendText(dst, "query", f.query)
	dst = appendText(dst, "db", f.db)
	dst = appendInt(dst, "timeout_ms", h.TimeoutMS)
	dst = appendInt(dst, "budget", h.Budget)
	dst = appendInt(dst, "degrade_samples", int64(h.DegradeSamples))
	dst = appendInt(dst, "sample_seed", h.SampleSeed)
	dst = appendInt(dst, "shards", int64(h.Shards))
	dst = append(dst, `,"stream":true`...)
	if h.IfDBVersion != nil {
		dst = append(dst, `,"if_db_version":`...)
		dst = strconv.AppendUint(dst, *h.IfDBVersion, 10)
	}
	return append(dst, '}')
}

// appendText appends the member name: text, where text is a JSON string,
// unless it is empty.
func appendText(dst []byte, name string, text []byte) []byte {
	if len(text) <= len(`""`) {
		return dst
	}
	dst = append(append(append(dst, `,"`...), name...), `":`...)
	return append(dst, text...)
}

// appendInt appends the member name: v unless v is 0, as omitempty does.
func appendInt(dst []byte, name string, v int64) []byte {
	if v == 0 {
		return dst
	}
	dst = append(append(append(dst, `,"`...), name...), `":`...)
	return strconv.AppendInt(dst, v, 10)
}

// decodeBufs are the reused buffers of one decode: the body and the
// scratch a string is unescaped into before its one copy.
type decodeBufs struct {
	body, esc []byte
}

var decodePool = sync.Pool{New: func() any { return new(decodeBufs) }}

// maxPooledBytes bounds the buffers the pool keeps, so one large body does
// not pin its buffer for good.
const maxPooledBytes = 1 << 20

func (b *decodeBufs) release() {
	if cap(b.body) > maxPooledBytes || cap(b.esc) > maxPooledBytes {
		return
	}
	decodePool.Put(b)
}

// readRequest reads the body of r, at most limit bytes of it, into pooled
// buffers, and returns them with the error that ended the read (nil at
// EOF). The caller releases them.
func readRequest(w http.ResponseWriter, r *http.Request, limit int64) (*decodeBufs, error) {
	bufs := decodePool.Get().(*decodeBufs)
	var rerr error
	bufs.body, rerr = readBody(http.MaxBytesReader(w, r.Body, limit), bufs.body[:0], min(r.ContentLength, limit))
	return bufs, rerr
}

// readAhead bounds the room readBody reserves from a declared length
// before any byte arrives, so a client that declares a large body and
// trickles it holds no more than this; past it the buffer grows as bytes
// come.
const readAhead = 64 << 10

// readBody appends everything r yields to buf, reserving room for size
// bytes (at most readAhead) up front when size is known, and returns the
// bytes with the error that ended the read (nil at EOF).
func readBody(r io.Reader, buf []byte, size int64) ([]byte, error) {
	if want := min(size, readAhead); size > 0 && int64(cap(buf)) <= want {
		buf = make([]byte, 0, want+1) // +1 reads EOF without growing
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// scan runs decode over the body with the pooled scratch, reporting
// whether the scanner covered the body.
func (b *decodeBufs) scan(decode func(*reqScanner) bool) bool {
	s := reqScanner{in: b.body, esc: b.esc}
	ok := decode(&s)
	b.esc = s.esc[:0]
	return ok
}

// fallback decodes the body into v with encoding/json, the reference. The
// read ended with rerr (nil at EOF); json.Decoder would have scanned these
// same bytes before reporting rerr, so it is handed rerr after them.
func (b *decodeBufs) fallback(rerr error, v any) error {
	var src io.Reader = bytes.NewReader(b.body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	return json.NewDecoder(src).Decode(v)
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The request scanner covers an object whose keys are the request type's
// JSON names spelled exactly, with string values for query and db, true or
// false for stream, integers in range for the rest, null or an array of
// objects keyed query and db for items, and JSON whitespace between
// tokens: every body json.Marshal emits for a SolveRequest or a
// BatchSolveRequest. A repeated key overwrites, as in encoding/json, except
// items: a second items array is decoded by encoding/json over the first
// one's elements in place, and the scanner leaves that to it. Strings may
// hold valid UTF-8 and the escapes Marshal writes (\uXXXX outside the
// surrogates, and the short ones). On anything else it gives up, and the
// body goes to encoding/json: case-folded or escaped names, unknown keys,
// null anywhere but items, floats, surrogate escapes, invalid UTF-8 and
// malformed JSON.

// solve decodes a SolveRequest into req.
func (s *reqScanner) solve(req *SolveRequest) bool {
	return s.object(func(name []byte) (ok bool) {
		switch string(name) {
		case "query":
			req.Query, ok = s.str()
		case "db":
			req.DB, ok = s.str()
		case "timeout_ms":
			req.TimeoutMS, ok = s.int(64)
		case "budget":
			req.Budget, ok = s.int(64)
		case "degrade_samples":
			var n int64
			n, ok = s.int(strconv.IntSize)
			req.DegradeSamples = int(n)
		case "sample_seed":
			req.SampleSeed, ok = s.int(64)
		case "if_db_version":
			var v uint64
			v, ok = s.digits()
			req.IfDBVersion = &v
		}
		return ok
	})
}

// batch decodes a BatchSolveRequest into req. With f set it frames the
// batch into f instead: the items go to f.Items, the batch-level db is
// only checked, and f keeps the JSON text of the batch-level query and db.
func (s *reqScanner) batch(req *BatchSolveRequest, f *BatchFrame) bool {
	items := false
	return s.object(func(name []byte) (ok bool) {
		switch string(name) {
		case "items":
			if items {
				return false
			}
			items = true
			ok = s.items(req, f)
		case "query":
			s.space()
			start := s.at
			req.Query, ok = s.str()
			if f != nil {
				f.query = s.in[start:s.at]
			}
		case "db":
			if f != nil {
				f.db, ok = s.text()
			} else {
				req.DB, ok = s.str()
			}
		case "timeout_ms":
			req.TimeoutMS, ok = s.int(64)
		case "budget":
			req.Budget, ok = s.int(64)
		case "degrade_samples":
			var n int64
			n, ok = s.int(strconv.IntSize)
			req.DegradeSamples = int(n)
		case "sample_seed":
			req.SampleSeed, ok = s.int(64)
		case "shards":
			var n int64
			n, ok = s.int(strconv.IntSize)
			req.Shards = int(n)
		case "stream":
			req.Stream, ok = s.bool()
		case "if_db_version":
			var v uint64
			v, ok = s.digits()
			req.IfDBVersion = &v
		}
		return ok
	})
}

// items reads the items array into req.Items or, with f set, into
// f.Items, each item with its text and without its db unescaped.
func (s *reqScanner) items(req *BatchSolveRequest, f *BatchFrame) bool {
	if s.literal("null") {
		return true // what json.Marshal writes for no items
	}
	if !s.token('[') {
		return false
	}
	// encoding/json leaves an empty array as an empty slice, not nil.
	req.Items = []BatchSolveItem{}
	if s.token(']') {
		return true
	}
	for {
		s.space()
		start := s.at
		var it BatchSolveItem
		ok := s.object(func(name []byte) (ok bool) {
			switch string(name) {
			case "query":
				it.Query, ok = s.str()
			case "db":
				if f != nil {
					_, ok = s.text()
				} else {
					it.DB, ok = s.str()
				}
			}
			return ok
		})
		if !ok {
			return false
		}
		if f != nil {
			f.Items = append(f.Items, FramedItem{Query: it.Query, text: s.in[start:s.at]})
		} else {
			req.Items = append(req.Items, it)
		}
		if s.token(']') {
			return true
		}
		if !s.token(',') {
			return false
		}
	}
}

// reqScanner reads JSON tokens from in; esc is the scratch strings with
// escapes are unescaped into.
type reqScanner struct {
	in  []byte
	at  int
	esc []byte
}

// object reads an object, handing each key to member, which reads the
// value and reports whether it could; an unknown key is one it cannot.
func (s *reqScanner) object(member func(name []byte) bool) bool {
	if !s.token('{') {
		return false
	}
	if s.token('}') {
		return true
	}
	for {
		name, ok := s.name()
		if !ok || !s.token(':') || !member(name) {
			return false
		}
		if s.token('}') {
			return true
		}
		if !s.token(',') {
			return false
		}
	}
}

// space skips JSON whitespace.
func (s *reqScanner) space() {
	for s.at < len(s.in) {
		switch s.in[s.at] {
		case ' ', '\t', '\n', '\r':
			s.at++
		default:
			return
		}
	}
}

// token consumes c, after any whitespace, reporting whether it was next.
func (s *reqScanner) token(c byte) bool {
	s.space()
	if s.at < len(s.in) && s.in[s.at] == c {
		s.at++
		return true
	}
	return false
}

// name reads an object key: a quoted run of printable ASCII without
// escapes, returned as a view of the input.
func (s *reqScanner) name() ([]byte, bool) {
	if !s.token('"') {
		return nil, false
	}
	start := s.at
	for ; s.at < len(s.in); s.at++ {
		switch c := s.in[s.at]; {
		case c == '"':
			s.at++
			return s.in[start : s.at-1], true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// str reads a string value into a string of its own: a plain run is
// copied once, and a string with escapes is unescaped into the scratch and
// copied from there.
func (s *reqScanner) str() (string, bool) {
	start, escaped, ok := s.string(true)
	switch {
	case !ok:
		return "", false
	case escaped:
		return string(s.esc), true
	}
	return string(s.in[start : s.at-1]), true
}

// text reads a string value without unescaping it, returning its JSON
// text, quotes included, as a view of the input.
func (s *reqScanner) text() ([]byte, bool) {
	s.space()
	start := s.at
	_, _, ok := s.string(false)
	return s.in[start:s.at], ok
}

// string reads a string value, returning where its content starts and
// whether it holds escapes; with unescape set, a string with escapes is
// unescaped into the scratch.
func (s *reqScanner) string(unescape bool) (start int, escaped, ok bool) {
	if !s.token('"') {
		return 0, false, false
	}
	start = s.at
	s.esc = s.esc[:0]
	for s.at < len(s.in) {
		run := s.at
		for s.at < len(s.in) && plainByte[s.in[s.at]] {
			s.at++
		}
		if escaped && unescape {
			s.esc = append(s.esc, s.in[run:s.at]...)
		}
		if s.at == len(s.in) {
			break
		}
		switch c := s.in[s.at]; {
		case c == '"':
			s.at++
			return start, escaped, true
		case c == '\\':
			if !escaped && unescape {
				s.esc = append(s.esc, s.in[start:s.at]...)
			}
			escaped = true
			if !s.escape(unescape) {
				return start, escaped, false
			}
		case c < ' ':
			return start, escaped, false
		default:
			r, n := utf8.DecodeRune(s.in[s.at:])
			if r == utf8.RuneError && n == 1 {
				return start, escaped, false
			}
			if escaped && unescape {
				s.esc = append(s.esc, s.in[s.at:s.at+n]...)
			}
			s.at += n
		}
	}
	return start, escaped, false
}

// plainByte marks the bytes a string holds as they are: ASCII from the
// space up, except the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape reads the escape at the current position, unescaping it into the
// scratch when unescape is set.
func (s *reqScanner) escape(unescape bool) bool {
	if s.at+1 >= len(s.in) {
		return false
	}
	var c byte
	switch s.in[s.at+1] {
	case '"', '\\', '/':
		c = s.in[s.at+1]
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		if s.at+6 > len(s.in) {
			return false
		}
		var r rune
		for _, h := range s.in[s.at+2 : s.at+6] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return false
			}
			r = r<<4 | rune(h)
		}
		if !utf8.ValidRune(r) {
			return false // a surrogate half
		}
		if unescape {
			s.esc = utf8.AppendRune(s.esc, r)
		}
		s.at += 6
		return true
	default:
		return false
	}
	if unescape {
		s.esc = append(s.esc, c)
	}
	s.at += 2
	return true
}

// bool reads true or false.
func (s *reqScanner) bool() (v, ok bool) {
	if s.literal("true") {
		return true, true
	}
	return false, s.literal("false")
}

// literal consumes lit, after any whitespace, reporting whether it was
// next.
func (s *reqScanner) literal(lit string) bool {
	s.space()
	if len(s.in)-s.at >= len(lit) && string(s.in[s.at:s.at+len(lit)]) == lit {
		s.at += len(lit)
		return true
	}
	return false
}

// int reads an integer value that fits a signed integer of the given
// bits: an optional minus sign, then digits.
func (s *reqScanner) int(bits int) (int64, bool) {
	s.space()
	neg := s.at < len(s.in) && s.in[s.at] == '-'
	if neg {
		s.at++
	}
	mag, ok := s.digits()
	hi := uint64(1)<<(bits-1) - 1
	switch {
	case !ok:
		return 0, false
	case neg && mag <= hi+1:
		return -int64(mag), true // -(1<<63) wraps to itself
	case !neg && mag <= hi:
		return int64(mag), true
	}
	return 0, false
}

// digits reads a non-negative integer value, digits without a leading
// zero, failing on overflow and on a fraction or exponent.
func (s *reqScanner) digits() (uint64, bool) {
	s.space()
	start := s.at
	var n uint64
	for ; s.at < len(s.in) && '0' <= s.in[s.at] && s.in[s.at] <= '9'; s.at++ {
		d := uint64(s.in[s.at] - '0')
		if n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = 10*n + d
	}
	switch {
	case s.at == start, s.at-start > 1 && s.in[start] == '0':
		return 0, false
	case s.at < len(s.in) && (s.in[s.at] == '.' || s.in[s.at] == 'e' || s.in[s.at] == 'E'):
		return 0, false
	}
	return n, true
}
