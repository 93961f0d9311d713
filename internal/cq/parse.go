package cq

import (
	"fmt"
	"math"
	"unicode"
)

// The textual query language:
//
//	R(x, y | z), S(y | x), T('a', x | 42)
//
// An atom lists its primary-key terms, then a bar, then the remaining terms;
// an atom without a bar is all-key. Variables are identifiers starting with
// a letter or underscore; constants are single-quoted strings (backslash
// escapes ' and \) or bare numeric literals. Whitespace is insignificant and
// '#' starts a comment that extends to the end of the line. Atoms may be
// separated by commas and/or newlines, but an atom may not span lines.

// identStart and identPart classify a byte by the code point of the same
// value, as the language always has: identifiers start with a letter or
// underscore and continue with letters, digits or underscores.
var identStart, identPart = func() (start, part [256]bool) {
	for c := range start {
		r := rune(c)
		start[c] = r == '_' || unicode.IsLetter(r)
		part[c] = start[c] || unicode.IsDigit(r)
	}
	return start, part
}()

// eof is what peek returns at the end of the input.
const eof = -1

// Scanner reads the atoms of query or database text one at a time, straight
// from the input bytes, into fields that the next Scan reuses. ParseQuery
// builds a Query from them; db.Parse interns them into a database without
// building any atom.
type Scanner struct {
	// Rel, KeyLen, Args and Const describe the atom the last Scan read.
	// Const[i] reports whether Args[i] is a constant (quoted or numeric)
	// rather than an identifier. Identifiers, numbers and quoted constants
	// without escapes are substrings of the input.
	Rel    string
	KeyLen int
	Args   []string
	Const  []bool

	in        string
	pos       int
	line      int
	afterAtom bool // a comma may separate the next atom from the last
	esc       []byte
	err       error
}

// NewScanner returns a scanner reading input from its first atom.
func NewScanner(input string) *Scanner { return &Scanner{in: input, line: 1} }

// Err returns the error that stopped the scan, or nil when the input ended.
func (s *Scanner) Err() error { return s.err }

// Line returns the line the scan has reached: after a successful Scan, the
// line holding the atom's closing parenthesis.
func (s *Scanner) Line() int { return s.line }

// Scan reads the next atom. It returns false at the end of the input and on
// a syntax error, which Err then reports. An atom with more than maxArgs
// arguments is an error, raised when its argument maxArgs+1 is read, so a
// caller capping the arity never buffers a longer row.
func (s *Scanner) Scan(maxArgs int) bool {
	if s.err != nil {
		return false
	}
	c := s.peek(true)
	if c == ',' && s.afterAtom {
		s.pos++
		c = s.peek(true)
	}
	if c == eof {
		return false
	}
	if !identStart[c] {
		text, err := s.token()
		if err == nil {
			err = fmt.Errorf("line %d: expected relation name, got %q", s.line, text)
		}
		return s.fail(err)
	}
	s.Rel = s.ident()
	if s.peek(false) != '(' {
		return s.syntax("expected '(' after relation %s")
	}
	s.pos++
	s.Args, s.Const, s.KeyLen = s.Args[:0], s.Const[:0], -1
	for {
		var arg string
		isConst := true
		switch c := s.peek(false); {
		case c == eof:
			return s.syntax("expected term in atom %s")
		case identStart[c]:
			arg, isConst = s.ident(), false
		case c == '\'':
			var err error
			if arg, err = s.quoted(); err != nil {
				return s.fail(err)
			}
		case s.numberAt():
			arg = s.number()
		default:
			return s.syntax("expected term in atom %s")
		}
		if len(s.Args) == maxArgs {
			return s.fail(fmt.Errorf("line %d: atom %s exceeds the maximum arity %d", s.line, s.Rel, maxArgs))
		}
		if len(s.Args) == cap(s.Args) {
			// Double, but never past maxArgs: append's growth would
			// overshoot it by half again.
			n := min(max(2*cap(s.Args), 4), maxArgs)
			s.Args = append(make([]string, 0, n), s.Args...)
			s.Const = append(make([]bool, 0, n), s.Const...)
		}
		s.Args = append(s.Args, arg)
		s.Const = append(s.Const, isConst)
		switch s.peek(false) {
		case ',':
			s.pos++
		case '|':
			if s.KeyLen >= 0 {
				return s.fail(fmt.Errorf("line %d: atom %s has two key separators", s.line, s.Rel))
			}
			s.KeyLen = len(s.Args)
			s.pos++
		case ')':
			s.pos++
			if s.KeyLen < 0 {
				s.KeyLen = len(s.Args) // all-key
			}
			s.afterAtom = true
			return true
		default:
			return s.syntax("expected ',', '|' or ')' in atom %s")
		}
	}
}

func (s *Scanner) fail(err error) bool {
	s.err = err
	return false
}

// syntax fails with a grammar error about the current atom, unless the
// token at the current position does not lex: that error comes first.
func (s *Scanner) syntax(format string) bool {
	if _, err := s.token(); err != nil {
		return s.fail(err)
	}
	return s.fail(fmt.Errorf("line %d: "+format, s.line, s.Rel))
}

// peek skips blanks and comments, and newlines too when nl is set, and
// returns the next byte without consuming it, or eof.
func (s *Scanner) peek(nl bool) int {
	for s.pos < len(s.in) {
		switch c := s.in[s.pos]; c {
		case ' ', '\t', '\r':
			s.pos++
		case '#':
			for s.pos < len(s.in) && s.in[s.pos] != '\n' {
				s.pos++
			}
		case '\n':
			if !nl {
				return '\n'
			}
			s.pos++
			s.line++
		default:
			return int(c)
		}
	}
	return eof
}

// token lexes the token at the current position for an error message. It
// returns the token's text, which is empty for anything but an identifier
// or a constant, or the error lexing it.
func (s *Scanner) token() (string, error) {
	switch c := s.peek(false); {
	case c == eof, c == '\n', c == '(', c == ')', c == ',', c == '|':
		return "", nil
	case identStart[c]:
		return s.ident(), nil
	case c == '\'':
		return s.quoted()
	case s.numberAt():
		return s.number(), nil
	default:
		return "", fmt.Errorf("line %d: unexpected character %q", s.line, byte(c))
	}
}

func (s *Scanner) ident() string {
	start := s.pos
	for s.pos++; s.pos < len(s.in) && identPart[s.in[s.pos]]; s.pos++ {
	}
	return s.in[start:s.pos]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// numberAt reports whether a numeric literal starts at the current
// position: a digit, or a minus sign followed by one.
func (s *Scanner) numberAt() bool {
	c := s.in[s.pos]
	return isDigit(c) || (c == '-' && s.pos+1 < len(s.in) && isDigit(s.in[s.pos+1]))
}

// number reads a numeric literal: an optional minus sign, then digits and
// dots in any order.
func (s *Scanner) number() string {
	start := s.pos
	if s.in[s.pos] == '-' {
		s.pos++
	}
	for s.pos < len(s.in) && (isDigit(s.in[s.pos]) || s.in[s.pos] == '.') {
		s.pos++
	}
	return s.in[start:s.pos]
}

// quoted reads a single-quoted constant. Only a constant with escapes is
// copied out of the input.
func (s *Scanner) quoted() (string, error) {
	s.pos++ // opening quote
	start := s.pos
	escaped := false
	for s.pos < len(s.in) {
		switch c := s.in[s.pos]; c {
		case '\\':
			if s.pos+1 >= len(s.in) {
				return "", fmt.Errorf("line %d: unterminated escape in constant", s.line)
			}
			if !escaped {
				s.esc = append(s.esc[:0], s.in[start:s.pos]...)
				escaped = true
			}
			if s.in[s.pos+1] == '\n' {
				s.line++ // keep line numbers honest across escaped newlines
			}
			s.esc = append(s.esc, s.in[s.pos+1])
			s.pos += 2
		case '\'':
			s.pos++
			if escaped {
				return string(s.esc), nil
			}
			return s.in[start : s.pos-1], nil
		case '\n':
			return "", fmt.Errorf("line %d: newline in quoted constant", s.line)
		default:
			if escaped {
				s.esc = append(s.esc, c)
			}
			s.pos++
		}
	}
	return "", fmt.Errorf("line %d: unterminated quoted constant", s.line)
}

// ParseQuery parses a Boolean conjunctive query in the textual language.
// Atoms may be separated by commas and/or newlines.
func ParseQuery(input string) (Query, error) {
	s := NewScanner(input)
	var atoms []Atom
	for s.Scan(math.MaxInt) {
		args := make([]Term, len(s.Args))
		for i, v := range s.Args {
			args[i] = Term{IsConst: s.Const[i], Value: v}
		}
		atoms = append(atoms, Atom{Rel: s.Rel, KeyLen: s.KeyLen, Args: args})
	}
	if err := s.Err(); err != nil {
		return Query{}, err
	}
	q := Query{Atoms: atoms}
	if err := q.Validate(); err != nil {
		return Query{}, err
	}
	return q, nil
}

// MustParseQuery is ParseQuery panicking on error; for tests and literals.
func MustParseQuery(input string) Query {
	q, err := ParseQuery(input)
	if err != nil {
		panic(err)
	}
	return q
}
