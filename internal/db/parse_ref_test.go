package db

import (
	"fmt"
	"strings"
	"unicode"

	"github.com/cqa-go/certainty/internal/cq"
)

// refParse is the reference for Parse: the route it took before the
// one-pass ingest, the token parser below and then one Add per atom, with
// the interned view left to buildInterned. FuzzParseEquivalence holds Parse
// to it.
func refParse(input string) (*DB, error) {
	if i := strings.IndexByte(input, 0); i >= 0 {
		return nil, fmt.Errorf("db: input contains a NUL byte at offset %d", i)
	}
	q, err := refParseQuery(input)
	if err != nil {
		return nil, err
	}
	d := New()
	for _, a := range q.Atoms {
		args := make([]string, len(a.Args))
		for i, t := range a.Args {
			args[i] = t.Value // identifiers are constants in database files
		}
		if err := d.Add(Fact{Rel: a.Rel, KeyLen: a.KeyLen, Args: args}); err != nil {
			return nil, err
		}
	}
	return d, nil
}

type refTokenKind int

const (
	refTokEOF refTokenKind = iota
	refTokIdent
	refTokConst
	refTokLParen
	refTokRParen
	refTokComma
	refTokBar
	refTokNewline
)

type refToken struct {
	kind refTokenKind
	text string
	pos  int
	line int
}

type refLexer struct {
	input string
	pos   int
	line  int
}

func newRefLexer(input string) *refLexer { return &refLexer{input: input, line: 1} }

func (l *refLexer) next() (refToken, error) {
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch {
		case c == '#':
			for l.pos < len(l.input) && l.input[l.pos] != '\n' {
				l.pos++
			}
		case c == '\n':
			l.pos++
			l.line++
			return refToken{kind: refTokNewline, pos: l.pos - 1, line: l.line - 1}, nil
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '(':
			l.pos++
			return refToken{kind: refTokLParen, pos: l.pos - 1, line: l.line}, nil
		case c == ')':
			l.pos++
			return refToken{kind: refTokRParen, pos: l.pos - 1, line: l.line}, nil
		case c == ',':
			l.pos++
			return refToken{kind: refTokComma, pos: l.pos - 1, line: l.line}, nil
		case c == '|':
			l.pos++
			return refToken{kind: refTokBar, pos: l.pos - 1, line: l.line}, nil
		case c == '\'':
			return l.lexQuoted()
		case refIsDigit(c) || (c == '-' && l.pos+1 < len(l.input) && refIsDigit(l.input[l.pos+1])):
			return l.lexNumber()
		case refIsIdentStart(rune(c)):
			return l.lexIdent()
		default:
			return refToken{}, fmt.Errorf("line %d: unexpected character %q", l.line, c)
		}
	}
	return refToken{kind: refTokEOF, pos: l.pos, line: l.line}, nil
}

func (l *refLexer) lexQuoted() (refToken, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.input) {
		c := l.input[l.pos]
		switch c {
		case '\\':
			if l.pos+1 >= len(l.input) {
				return refToken{}, fmt.Errorf("line %d: unterminated escape in constant", l.line)
			}
			if l.input[l.pos+1] == '\n' {
				l.line++ // keep line numbers honest across escaped newlines
			}
			b.WriteByte(l.input[l.pos+1])
			l.pos += 2
		case '\'':
			l.pos++
			return refToken{kind: refTokConst, text: b.String(), pos: start, line: l.line}, nil
		case '\n':
			return refToken{}, fmt.Errorf("line %d: newline in quoted constant", l.line)
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return refToken{}, fmt.Errorf("line %d: unterminated quoted constant", l.line)
}

func (l *refLexer) lexNumber() (refToken, error) {
	start := l.pos
	if l.input[l.pos] == '-' {
		l.pos++
	}
	for l.pos < len(l.input) && (refIsDigit(l.input[l.pos]) || l.input[l.pos] == '.') {
		l.pos++
	}
	return refToken{kind: refTokConst, text: l.input[start:l.pos], pos: start, line: l.line}, nil
}

func (l *refLexer) lexIdent() (refToken, error) {
	start := l.pos
	for l.pos < len(l.input) && refIsIdentPart(rune(l.input[l.pos])) {
		l.pos++
	}
	return refToken{kind: refTokIdent, text: l.input[start:l.pos], pos: start, line: l.line}, nil
}

func refIsDigit(c byte) bool { return c >= '0' && c <= '9' }

func refIsIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func refIsIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

type refParser struct {
	lex    *refLexer
	tok    refToken
	peeked bool
}

func (p *refParser) advance() error {
	if p.peeked {
		p.peeked = false
		return nil
	}
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// skipNewlines advances past newline tokens.
func (p *refParser) skipNewlines() error {
	for p.tok.kind == refTokNewline {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

// parseAtom parses one atom; the current refToken must be the relation name.
func (p *refParser) parseAtom() (cq.Atom, error) {
	if p.tok.kind != refTokIdent {
		return cq.Atom{}, fmt.Errorf("line %d: expected relation name, got %q", p.tok.line, p.tok.text)
	}
	rel := p.tok.text
	if err := p.advance(); err != nil {
		return cq.Atom{}, err
	}
	if p.tok.kind != refTokLParen {
		return cq.Atom{}, fmt.Errorf("line %d: expected '(' after relation %s", p.tok.line, rel)
	}
	if err := p.advance(); err != nil {
		return cq.Atom{}, err
	}
	var args []cq.Term
	keyLen := -1
	for {
		switch p.tok.kind {
		case refTokIdent:
			args = append(args, cq.Var(p.tok.text))
		case refTokConst:
			args = append(args, cq.Const(p.tok.text))
		default:
			return cq.Atom{}, fmt.Errorf("line %d: expected term in atom %s", p.tok.line, rel)
		}
		if err := p.advance(); err != nil {
			return cq.Atom{}, err
		}
		switch p.tok.kind {
		case refTokComma:
			if err := p.advance(); err != nil {
				return cq.Atom{}, err
			}
		case refTokBar:
			if keyLen >= 0 {
				return cq.Atom{}, fmt.Errorf("line %d: atom %s has two key separators", p.tok.line, rel)
			}
			keyLen = len(args)
			if err := p.advance(); err != nil {
				return cq.Atom{}, err
			}
		case refTokRParen:
			if keyLen < 0 {
				keyLen = len(args) // all-key
			}
			if err := p.advance(); err != nil {
				return cq.Atom{}, err
			}
			a := cq.Atom{Rel: rel, KeyLen: keyLen, Args: args}
			if err := a.Validate(); err != nil {
				return cq.Atom{}, fmt.Errorf("line %d: %v", p.tok.line, err)
			}
			return a, nil
		default:
			return cq.Atom{}, fmt.Errorf("line %d: expected ',', '|' or ')' in atom %s", p.tok.line, rel)
		}
	}
}

// refParseQuery is the token lexer and parser that cq.ParseQuery ran
// before its byte-level scanner: it defines the language the scanner must
// accept, with the same values.
func refParseQuery(input string) (cq.Query, error) {
	p := &refParser{lex: newRefLexer(input)}
	if err := p.advance(); err != nil {
		return cq.Query{}, err
	}
	var atoms []cq.Atom
	for {
		if err := p.skipNewlines(); err != nil {
			return cq.Query{}, err
		}
		if p.tok.kind == refTokEOF {
			break
		}
		a, err := p.parseAtom()
		if err != nil {
			return cq.Query{}, err
		}
		atoms = append(atoms, a)
		if err := p.skipNewlines(); err != nil {
			return cq.Query{}, err
		}
		if p.tok.kind == refTokComma {
			if err := p.advance(); err != nil {
				return cq.Query{}, err
			}
		}
	}
	q := cq.Query{Atoms: atoms}
	if err := q.Validate(); err != nil {
		return cq.Query{}, err
	}
	return q, nil
}
