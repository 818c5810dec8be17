package obs

import "testing"

func TestIDFormatParseRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0), NewID()} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q, want 16 hex digits", id, s)
		}
		if got := ParseID(s); got != id {
			t.Fatalf("round trip %d → %q → %d", id, s, got)
		}
	}
	if FormatID(0) != "" {
		t.Fatal("zero id must encode as empty (untraced)")
	}
	for _, bad := range []string{"", "zzzz", "12345678901234567890", "-1"} {
		if ParseID(bad) != 0 {
			t.Fatalf("ParseID(%q) should degrade to 0", bad)
		}
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 10000; i++ {
		id := NewID()
		if id == 0 || seen[id] {
			t.Fatalf("id %d duplicate or zero at iteration %d", id, i)
		}
		seen[id] = true
	}
}
