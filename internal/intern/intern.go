// Package intern provides append-only string interning with dense uint32
// ids. It is the symbol substrate of the interned data plane: every constant
// and relation name of a database is mapped to a dense id at ingest time, so
// the evaluation inner loops (posting intersection, block probing, bitset
// valuations) run over machine integers and never touch a string.
//
// Ids are assigned in interning order, which makes them deterministic for a
// deterministic ingest order: a database snapshot reloaded fact-by-fact
// reproduces the exact id assignment of the database that wrote it (locked
// by a property test in internal/db). The table is append-only — ids are
// never reassigned or reused — so any id handed out stays valid for the
// lifetime of the table.
//
// A Table is single-writer: interning must happen from one goroutine (the
// database build path), and it counts its own hits and misses in plain
// fields. After the last Intern call the table is effectively immutable and
// every read accessor (Lookup, StringOf, Len, Bytes, Stats) is safe for
// unlimited concurrent use; Lookup's hit/miss telemetry is atomic.
package intern

import (
	"fmt"
	"math"
	"sync/atomic"
)

// None is the sentinel id meaning "no symbol". It is never assigned to a
// real symbol (the table refuses to grow that far).
const None = ^uint32(0)

// MaxSymbols caps the number of symbols one table can hold, keeping every
// assigned id strictly below None.
const MaxSymbols = math.MaxUint32

// Stats is a point-in-time view of one table.
type Stats struct {
	// Tables is the number of tables built (1 for a single table's stats).
	Tables int64 `json:"tables"`
	// Symbols is the number of distinct symbols interned.
	Symbols int64 `json:"symbols"`
	// TableBytes approximates the retained bytes: string payloads plus the
	// per-symbol slice and map overhead.
	TableBytes int64 `json:"table_bytes"`
	// Hits counts Intern calls that found an existing symbol plus Lookup
	// calls that resolved; Misses counts Intern calls that created a symbol
	// plus Lookup calls that did not resolve.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// HitRatio is Hits / (Hits + Misses), 0 when no calls were made.
	HitRatio float64 `json:"hit_ratio"`
}

// ratio fills HitRatio from Hits and Misses.
func (s Stats) ratio() Stats {
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}

// perSymbolOverhead approximates the bookkeeping bytes per symbol beyond
// the string payload: the slice header in strs plus a map entry (key header,
// value, bucket share).
const perSymbolOverhead = 16 + 32

// Table is an append-only string interner. The zero value is not ready;
// call NewTable.
type Table struct {
	strs  []string
	ids   map[string]uint32
	bytes int64

	// internHits counts Intern calls that found their symbol; Intern's
	// misses are the symbols, len(strs). Lookup, which may run
	// concurrently, counts into the atomic lookup counters.
	internHits   int64
	lookupHits   atomic.Int64
	lookupMisses atomic.Int64
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{ids: make(map[string]uint32)}
}

// Intern returns the id of s, assigning the next dense id on first sight.
// Single-writer: must not race with other Intern calls.
func (t *Table) Intern(s string) uint32 {
	if id, ok := t.ids[s]; ok {
		t.internHits++
		return id
	}
	if len(t.strs) >= MaxSymbols {
		panic(fmt.Sprintf("intern: table overflow at %d symbols", len(t.strs)))
	}
	id := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	t.bytes += int64(len(s)) + perSymbolOverhead
	return id
}

// Lookup resolves s without interning it, reporting (None, false) when s
// was never interned. Safe for concurrent use once interning is done.
func (t *Table) Lookup(s string) (uint32, bool) {
	id, ok := t.ids[s]
	if ok {
		t.lookupHits.Add(1)
		return id, true
	}
	t.lookupMisses.Add(1)
	return None, false
}

// StringOf returns the symbol for id, reporting false for ids never
// assigned (including None).
func (t *Table) StringOf(id uint32) (string, bool) {
	if int64(id) >= int64(len(t.strs)) {
		return "", false
	}
	return t.strs[id], true
}

// MustString is StringOf panicking on unknown ids (programming error).
func (t *Table) MustString(id uint32) string {
	s, ok := t.StringOf(id)
	if !ok {
		panic(fmt.Sprintf("intern: unknown symbol id %d (table has %d)", id, len(t.strs)))
	}
	return s
}

// Len returns the number of interned symbols.
func (t *Table) Len() int { return len(t.strs) }

// Bytes approximates the retained bytes of the table.
func (t *Table) Bytes() int64 { return t.bytes }

// Stats reports this table's census and telemetry.
func (t *Table) Stats() Stats {
	return Stats{
		Tables:     1,
		Symbols:    int64(len(t.strs)),
		TableBytes: t.bytes,
		Hits:       t.internHits + t.lookupHits.Load(),
		Misses:     int64(len(t.strs)) + t.lookupMisses.Load(),
	}.ratio()
}
