package intern

import (
	"fmt"
	"testing"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	tb := NewTable()
	words := []string{"a", "b", "c", "a", "b", "d"}
	want := []uint32{0, 1, 2, 0, 1, 3}
	for i, w := range words {
		if got := tb.Intern(w); got != want[i] {
			t.Fatalf("Intern(%q) = %d, want %d", w, got, want[i])
		}
	}
	if tb.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tb.Len())
	}
}

func TestInternDeterministicOrder(t *testing.T) {
	seq := []string{"R", "x", "y", "S", "x", "z", "R"}
	a, b := NewTable(), NewTable()
	for _, s := range seq {
		if ia, ib := a.Intern(s), b.Intern(s); ia != ib {
			t.Fatalf("tables diverged on %q: %d vs %d", s, ia, ib)
		}
	}
}

func TestLookupAndStringOf(t *testing.T) {
	tb := NewTable()
	id := tb.Intern("hello")
	if got, ok := tb.Lookup("hello"); !ok || got != id {
		t.Fatalf("Lookup(hello) = (%d, %v), want (%d, true)", got, ok, id)
	}
	if got, ok := tb.Lookup("absent"); ok || got != None {
		t.Fatalf("Lookup(absent) = (%d, %v), want (None, false)", got, ok)
	}
	if s, ok := tb.StringOf(id); !ok || s != "hello" {
		t.Fatalf("StringOf(%d) = (%q, %v), want (hello, true)", id, s, ok)
	}
	if _, ok := tb.StringOf(99); ok {
		t.Fatal("StringOf(99) resolved on a 1-symbol table")
	}
	if _, ok := tb.StringOf(None); ok {
		t.Fatal("StringOf(None) resolved")
	}
}

func TestMustStringPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustString on unknown id did not panic")
		}
	}()
	NewTable().MustString(0)
}

func TestEmptyStringIsInternable(t *testing.T) {
	tb := NewTable()
	id := tb.Intern("")
	if s, ok := tb.StringOf(id); !ok || s != "" {
		t.Fatalf("round-trip of empty string failed: (%q, %v)", s, ok)
	}
}

func TestStats(t *testing.T) {
	tb := NewTable()
	tb.Intern("one")   // miss
	tb.Intern("one")   // hit
	tb.Intern("two")   // miss
	tb.Lookup("one")   // hit
	tb.Lookup("three") // miss
	st := tb.Stats()
	if st.Symbols != 2 {
		t.Fatalf("Symbols = %d, want 2", st.Symbols)
	}
	if st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("Hits/Misses = %d/%d, want 2/3", st.Hits, st.Misses)
	}
	if st.HitRatio <= 0.39 || st.HitRatio >= 0.41 {
		t.Fatalf("HitRatio = %v, want 0.4", st.HitRatio)
	}
	if st.TableBytes <= 0 {
		t.Fatalf("TableBytes = %d, want > 0", st.TableBytes)
	}
	if st.Tables != 1 {
		t.Fatalf("Tables = %d, want 1", st.Tables)
	}
}

func TestConcurrentReadsAfterBuild(t *testing.T) {
	tb := NewTable()
	const n = 256
	for i := 0; i < n; i++ {
		tb.Intern(fmt.Sprintf("sym-%d", i))
	}
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < n; i++ {
				s := fmt.Sprintf("sym-%d", i)
				id, found := tb.Lookup(s)
				got, _ := tb.StringOf(id)
				ok = ok && found && got == s
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent reader saw an inconsistent table")
		}
	}
}

// FuzzInternRoundTrip feeds adversarial strings (embedded NULs, invalid
// UTF-8, huge runs) through the intern cycle and checks the two identities
// that the data plane depends on: StringOf(Intern(s)) == s, and re-interning
// yields the same id. It must never panic.
func FuzzInternRoundTrip(f *testing.F) {
	f.Add("", "")
	f.Add("a", "a")
	f.Add("R", "x\x00y")
	f.Add("\xff\xfe invalid utf8", "PODS")
	f.Add("sym", "sym")
	f.Fuzz(func(t *testing.T, a, b string) {
		tb := NewTable()
		ida := tb.Intern(a)
		idb := tb.Intern(b)
		if sa, ok := tb.StringOf(ida); !ok || sa != a {
			t.Fatalf("StringOf(Intern(%q)) = (%q, %v)", a, sa, ok)
		}
		if sb, ok := tb.StringOf(idb); !ok || sb != b {
			t.Fatalf("StringOf(Intern(%q)) = (%q, %v)", b, sb, ok)
		}
		if tb.Intern(a) != ida || tb.Intern(b) != idb {
			t.Fatal("re-interning changed an id")
		}
		if (a == b) != (ida == idb) {
			t.Fatalf("id identity diverged from string identity: %q=%d %q=%d", a, ida, b, idb)
		}
		if got, ok := tb.Lookup(a); !ok || got != ida {
			t.Fatalf("Lookup(%q) = (%d, %v), want (%d, true)", a, got, ok, ida)
		}
	})
}
