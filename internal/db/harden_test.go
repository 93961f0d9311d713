package db

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestParseRejectsNUL: adversarial NUL bytes are reported as errors, both
// at the top of Parse and through Fact.Validate.
func TestParseRejectsNUL(t *testing.T) {
	if _, err := Parse("R(a \x00 | b)"); err == nil || !strings.Contains(err.Error(), "NUL") {
		t.Errorf("Parse with raw NUL: err = %v, want a NUL-byte error", err)
	}
	if err := (Fact{Rel: "R", KeyLen: 1, Args: []string{"a\x00b"}}).Validate(); err == nil {
		t.Error("Validate accepted an argument containing NUL")
	}
	if err := (Fact{Rel: "R\x00", KeyLen: 1, Args: []string{"a"}}).Validate(); err == nil {
		t.Error("Validate accepted a relation name containing NUL")
	}
}

// TestParseRejectsOversizedRow: rows wider than MaxArity are errors, not
// memory bombs. The scan stops a row at argument MaxArity+1, so a row a
// hundred times too wide costs no more memory than one just too wide.
func TestParseRejectsOversizedRow(t *testing.T) {
	for _, args := range []int{MaxArity + 1, 100 * MaxArity} {
		var b strings.Builder
		b.WriteString("R(k")
		for i := 0; i < args; i++ {
			b.WriteString(", a")
		}
		b.WriteString(")")
		input := b.String()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(input)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "arity") {
			t.Errorf("row of %d arguments: err = %v, want an arity error", args+1, err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
			t.Errorf("row of %d arguments: Parse allocated %d bytes before rejecting it, want under 64 KiB", args+1, alloc)
		}
	}
}

// TestParseRejectsConflictingSignatures: a relation may not appear with two
// different signatures (the textual analogue of duplicate conflicting
// relation headers).
func TestParseRejectsConflictingSignatures(t *testing.T) {
	for _, input := range []string{
		"R(a | b)\nR(a, b | c)",
		"R(a)\nR(a | b)",
	} {
		if _, err := Parse(input); err == nil {
			t.Errorf("Parse(%q) accepted conflicting signatures", input)
		}
	}
}

// TestReadSnapshotGarbage: arbitrary bytes and invalid embedded facts must
// come back as errors, never panics.
func TestReadSnapshotGarbage(t *testing.T) {
	for _, data := range [][]byte{
		nil,
		[]byte("garbage"),
		bytes.Repeat([]byte{0x7f}, 1024),
	} {
		if _, err := ReadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("ReadSnapshot(%d garbage bytes) succeeded", len(data))
		}
	}
	// A structurally valid snapshot holding an invalid fact is rejected too.
	var buf bytes.Buffer
	d := MustParse("R(a | b)")
	if err := d.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadSnapshot(bytes.NewReader(good)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

// TestDBJSONRoundTrip: the JSON encoding used by the certd wire protocol
// preserves the fact set and rejects invalid fact lists.
func TestDBJSONRoundTrip(t *testing.T) {
	d := MustParse("C(PODS, 2016 | Rome)\nC(PODS, 2016 | Paris)\nR(PODS | A)")
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back DB
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !d.Equal(&back) {
		t.Fatalf("round trip changed database:\n%s\nvs\n%s", d, &back)
	}
	if err := json.Unmarshal([]byte(`{"facts":[{"rel":"R","key_len":9,"args":["a"]}]}`), &back); err == nil {
		t.Error("unmarshal accepted an invalid signature")
	}
}
