package db

import (
	"bytes"
	"strings"
	"testing"
)

var parseDBSeeds = []string{
	"C(PODS, 2016 | Rome)\nC(PODS, 2016 | Paris)\nR(PODS | A)",
	"R(a | b), R(a | c), S(b | d)",
	"R('quo\\'ted', 'a\\\\b' | x)",
	"R('line\\\nbreak' | x)",
	"N(1, -2 | 3.5)",
	"R(a | b)\nR(a, b | c)", // duplicate relation, conflicting signature
	"R(a)\nR(a | b)",        // duplicate relation, conflicting key length
	"R(\x00 | b)",           // NUL byte
	"# comment only",
	"",
}

// FuzzParseDB checks that the database text parser never panics and that
// whatever it accepts round-trips through String as the same fact set.
func FuzzParseDB(f *testing.F) {
	for _, s := range parseDBSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		d, err := Parse(input)
		if err != nil {
			return
		}
		if strings.IndexByte(input, 0) >= 0 {
			t.Fatalf("accepted input containing a NUL byte")
		}
		rendered := d.String()
		d2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its rendering %q: %v", input, rendered, err)
		}
		if !d.Equal(d2) {
			t.Fatalf("round trip changed database: %q -> %q", input, rendered)
		}
	})
}

// FuzzReadSnapshot checks that the binary snapshot decoder survives
// arbitrary bytes (no panics, no unbounded allocation) and that whatever it
// accepts round-trips through WriteSnapshot.
func FuzzReadSnapshot(f *testing.F) {
	sample := MustParse("C(PODS, 2016 | Rome)\nC(PODS, 2016 | Paris)\nR(PODS | A)")
	var buf bytes.Buffer
	if err := sample.WriteSnapshot(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("not a snapshot"))
	if len(valid) > 4 {
		f.Add(valid[:len(valid)/2])           // truncated
		f.Add(append([]byte{0xff}, valid...)) // corrupted prefix
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := d.WriteSnapshot(&out); err != nil {
			t.Fatalf("accepted %d bytes but cannot re-encode: %v", len(data), err)
		}
		d2, err := ReadSnapshot(&out)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !d.Equal(d2) {
			t.Fatal("snapshot round trip changed the database")
		}
		// Adversarial snapshots that decode must also build a consistent
		// interned view with stable ids across the re-decode.
		in, in2 := d.Interned(), d2.Interned()
		if in.Syms.Len() != in2.Syms.Len() {
			t.Fatalf("interned symbol count diverged: %d vs %d", in.Syms.Len(), in2.Syms.Len())
		}
		for id := 0; id < in.Syms.Len(); id++ {
			if in.Syms.MustString(uint32(id)) != in2.Syms.MustString(uint32(id)) {
				t.Fatalf("interned id %d diverged across snapshot round trip", id)
			}
		}
	})
}
