package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
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
	bufs := decodePool.Get().(*decodeBufs)
	defer bufs.release()
	var rerr error
	bufs.body, rerr = readBody(http.MaxBytesReader(w, r.Body, limit), bufs.body[:0], min(r.ContentLength, limit))
	return bufs.decode(rerr)
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

// decode decodes the body the read left in b.body, which rerr ended (nil at
// EOF). json.Decoder would have scanned these same bytes before reporting
// rerr, so it is handed rerr after them.
func (b *decodeBufs) decode(rerr error) (SolveRequest, error) {
	var req SolveRequest
	if b.scan(&req) {
		return req, nil
	}
	req = SolveRequest{}
	var src io.Reader = bytes.NewReader(b.body)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	err := json.NewDecoder(src).Decode(&req)
	return req, err
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// The request scanner covers an object whose keys are SolveRequest's JSON
// names spelled exactly, with string values for query and db and integers
// in range for the rest, and JSON whitespace between tokens: every body
// json.Marshal emits for a SolveRequest. A repeated key overwrites, as in
// encoding/json. Strings may hold valid UTF-8 and the escapes Marshal
// writes (\uXXXX outside the surrogates, and the short ones). On anything
// else it gives up, and the body goes to encoding/json: case-folded or
// escaped names, unknown keys, null, floats, surrogate escapes, invalid
// UTF-8 and malformed JSON.

// scan decodes b.body into req when the scanner covers it.
func (b *decodeBufs) scan(req *SolveRequest) bool {
	s := reqScanner{in: b.body, esc: b.esc}
	defer func() { b.esc = s.esc[:0] }()
	if !s.token('{') {
		return false
	}
	if s.token('}') {
		return true
	}
	for {
		name, ok := s.name()
		if !ok || !s.token(':') {
			return false
		}
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
		default:
			return false
		}
		if !ok {
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

// reqScanner reads JSON tokens from in; esc is the scratch strings with
// escapes are unescaped into.
type reqScanner struct {
	in  []byte
	at  int
	esc []byte
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
	if !s.token('"') {
		return "", false
	}
	start, escaped := s.at, false
	s.esc = s.esc[:0]
	for s.at < len(s.in) {
		run := s.at
		for s.at < len(s.in) && plainByte[s.in[s.at]] {
			s.at++
		}
		if escaped {
			s.esc = append(s.esc, s.in[run:s.at]...)
		}
		if s.at == len(s.in) {
			break
		}
		switch c := s.in[s.at]; {
		case c == '"':
			s.at++
			if escaped {
				return string(s.esc), true
			}
			return string(s.in[start : s.at-1]), true
		case c == '\\':
			if !escaped {
				s.esc, escaped = append(s.esc, s.in[start:s.at]...), true
			}
			if !s.escape() {
				return "", false
			}
		case c < ' ':
			return "", false
		default:
			r, n := utf8.DecodeRune(s.in[s.at:])
			if r == utf8.RuneError && n == 1 {
				return "", false
			}
			if escaped {
				s.esc = append(s.esc, s.in[s.at:s.at+n]...)
			}
			s.at += n
		}
	}
	return "", false
}

// plainByte marks the bytes a string holds as they are: ASCII from the
// space up, except the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// escape unescapes the escape at the current position into the scratch.
func (s *reqScanner) escape() bool {
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
		s.esc = utf8.AppendRune(s.esc, r)
		s.at += 6
		return true
	default:
		return false
	}
	s.esc = append(s.esc, c)
	s.at += 2
	return true
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
