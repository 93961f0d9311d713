// Package db implements uncertain databases: finite sets of facts over
// relations with primary-key signatures, where distinct key-equal facts may
// coexist (Section 3 of the paper). It provides blocks, consistency,
// repairs (maximal consistent subsets), repair counting and enumeration,
// and a textual format shared with the query language.
package db

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/cqa-go/certainty/internal/cq"
)

// Fact is a ground atom: a relation name, a key length, and constant
// arguments. The first KeyLen arguments are the primary key.
type Fact struct {
	Rel    string   `json:"rel"`
	KeyLen int      `json:"key_len"`
	Args   []string `json:"args"`
}

// NewFact builds a fact, panicking on an invalid signature (programming
// error).
func NewFact(rel string, keyLen int, args ...string) Fact {
	f := Fact{Rel: rel, KeyLen: keyLen, Args: args}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}

// MaxArity caps the number of arguments a fact may carry. Real schemas are
// tiny; the cap exists so adversarial inputs (hand-crafted snapshots,
// generated text files) cannot make a single row arbitrarily large.
const MaxArity = 1024

// Validate checks the signature constraint n >= k >= 1 plus the defensive
// input limits: bounded arity and no NUL bytes (which would corrupt the
// length-prefixed ID encodings' readability in logs and break the textual
// interchange format).
func (f Fact) Validate() error {
	if f.Rel == "" {
		return fmt.Errorf("db: fact with empty relation name")
	}
	if len(f.Args) > MaxArity {
		return fmt.Errorf("db: fact %s has %d arguments, exceeding the maximum arity %d", f.Rel, len(f.Args), MaxArity)
	}
	if f.KeyLen < 1 || f.KeyLen > len(f.Args) {
		return fmt.Errorf("db: fact %s has invalid signature [%d,%d]", f.Rel, len(f.Args), f.KeyLen)
	}
	if strings.IndexByte(f.Rel, 0) >= 0 {
		return fmt.Errorf("db: relation name contains a NUL byte")
	}
	for _, a := range f.Args {
		if strings.IndexByte(a, 0) >= 0 {
			return fmt.Errorf("db: fact %s has an argument containing a NUL byte", f.Rel)
		}
	}
	return nil
}

// KeyArgs returns the primary-key constants.
func (f Fact) KeyArgs() []string { return f.Args[:f.KeyLen] }

// appendID appends the canonical encoding of a fact with relation rel and
// arguments args: the relation, a slash, then each argument behind its
// decimal length and a colon, which keeps the encoding unambiguous even
// when constants contain delimiter characters. Fact.ID and Fact.BlockID
// are this encoding, and the content digests hash it.
func appendID(dst []byte, rel string, args []string) []byte {
	dst = append(dst, rel...)
	dst = append(dst, '/')
	for _, a := range args {
		dst = appendPart(dst, a)
	}
	return dst
}

// appendPart appends s behind its decimal length and a colon.
func appendPart[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// idLen returns the length of appendID's encoding of rel and args.
func idLen(rel string, args []string) int {
	n := len(rel) + 1
	for _, a := range args {
		n += decimalLen(len(a)) + 1 + len(a)
	}
	return n
}

// decimalLen returns the number of decimal digits of n >= 0.
func decimalLen(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// ID returns a canonical encoding identifying the fact (relation plus all
// arguments), safe for use as a map key even when constants contain
// delimiter characters.
func (f Fact) ID() string {
	var buf [64]byte
	return string(appendID(buf[:0], f.Rel, f.Args))
}

// BlockID returns a canonical encoding of the fact's block: the relation
// plus the primary-key arguments. Two facts are key-equal iff their
// BlockIDs coincide.
func (f Fact) BlockID() string {
	var buf [64]byte
	return string(appendID(buf[:0], f.Rel, f.KeyArgs()))
}

// KeyEqual reports whether f and g are key-equal: same relation name and
// same primary-key value.
func (f Fact) KeyEqual(g Fact) bool {
	if f.Rel != g.Rel || f.KeyLen != g.KeyLen {
		return false
	}
	for i := 0; i < f.KeyLen; i++ {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

// Equal reports full equality of two facts.
func (f Fact) Equal(g Fact) bool {
	if f.Rel != g.Rel || f.KeyLen != g.KeyLen || len(f.Args) != len(g.Args) {
		return false
	}
	for i := range f.Args {
		if f.Args[i] != g.Args[i] {
			return false
		}
	}
	return true
}

// Atom converts the fact to a ground atom.
func (f Fact) Atom() cq.Atom {
	args := make([]cq.Term, len(f.Args))
	for i, a := range f.Args {
		args[i] = cq.Const(a)
	}
	return cq.Atom{Rel: f.Rel, KeyLen: f.KeyLen, Args: args}
}

// FactFromAtom converts a ground atom to a fact; it reports ok=false when
// the atom contains variables.
func FactFromAtom(a cq.Atom) (Fact, bool) {
	args := make([]string, len(a.Args))
	for i, t := range a.Args {
		if t.IsVar() {
			return Fact{}, false
		}
		args[i] = t.Value
	}
	return Fact{Rel: a.Rel, KeyLen: a.KeyLen, Args: args}, true
}

// isBareConstant reports whether s can be rendered unquoted in the textual
// database format (identifier- or number-shaped, nonempty).
func isBareConstant(s string) bool {
	if s == "" {
		return false
	}
	isLetter := func(r byte) bool {
		return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
	}
	isDigit := func(r byte) bool { return r >= '0' && r <= '9' }
	if isLetter(s[0]) {
		for i := 1; i < len(s); i++ {
			if !isLetter(s[i]) && !isDigit(s[i]) {
				return false
			}
		}
		return true
	}
	if isDigit(s[0]) {
		// The lexer tokenizes digits and dots as a single numeric constant.
		for i := 1; i < len(s); i++ {
			if !isDigit(s[i]) && s[i] != '.' {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the fact as R(a, b | c); constants that are not
// identifier-shaped are quoted.
func (f Fact) String() string {
	var b strings.Builder
	b.WriteString(f.Rel)
	b.WriteByte('(')
	for i, a := range f.Args {
		if i > 0 {
			if i == f.KeyLen {
				b.WriteString(" | ")
			} else {
				b.WriteString(", ")
			}
		}
		if isBareConstant(a) {
			b.WriteString(a)
		} else {
			b.WriteString(cq.Const(a).String())
		}
	}
	b.WriteByte(')')
	return b.String()
}
