package db

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/cqa-go/certainty/internal/govern"
)

// snapshot is the serialized form of a database. Facts are stored once;
// indexes are rebuilt on load.
type snapshot struct {
	Version int
	Facts   []Fact
}

const snapshotVersion = 1

// WriteSnapshot serializes the database in a binary format (encoding/gob)
// suitable for fast save/restore of large instances. The text format
// (String/Parse) remains the interchange format.
func (d *DB) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(snapshot{Version: snapshotVersion, Facts: d.Facts()}); err != nil {
		return fmt.Errorf("db: snapshot encode: %w", err)
	}
	return bw.Flush()
}

// MaxSnapshotBytes bounds how much input ReadSnapshot will consume, so a
// truncated-length or endless adversarial stream cannot exhaust memory.
const MaxSnapshotBytes = 1 << 30

// ReadSnapshot deserializes a database written by WriteSnapshot.
//
// The decode path is hardened for untrusted input: it reads at most
// MaxSnapshotBytes, contains any decoder panic as an error, and validates
// every fact (arity cap, NUL bytes, signature conflicts) before it enters
// the database.
func ReadSnapshot(r io.Reader) (*DB, error) {
	var s snapshot
	dec := gob.NewDecoder(bufio.NewReader(io.LimitReader(r, MaxSnapshotBytes)))
	if err := govern.Safe(func() error { return dec.Decode(&s) }); err != nil {
		return nil, fmt.Errorf("db: snapshot decode: %w", err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("db: unsupported snapshot version %d", s.Version)
	}
	out := New()
	for _, f := range s.Facts {
		if err := out.Add(f); err != nil {
			return nil, fmt.Errorf("db: snapshot contains invalid fact: %w", err)
		}
	}
	return out, nil
}
