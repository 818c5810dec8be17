package core

import (
	"strings"
	"testing"
)

func TestNewPolicyByName(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicyByName(name, 1000, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p == nil {
			t.Fatalf("%s: nil policy", name)
		}
		// Every constructed policy must handle an access.
		p.Access(1, testObj("a", 100), 50)
	}
}

// TestPolicyNameIsItsName: the policy built from each name reports
// exactly that name, so a record, a snapshot and a table row carry the
// name it was asked for.
func TestPolicyNameIsItsName(t *testing.T) {
	want := "gds none online-by online-by-marking rate-profile space-eff-by"
	if got := strings.Join(PolicyNames(), " "); got != want {
		t.Fatalf("PolicyNames() = %s, want %s", got, want)
	}
	for _, name := range PolicyNames() {
		p, err := NewPolicyByName(name, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Errorf("NewPolicyByName(%q).Name() = %q", name, p.Name())
		}
	}
}

// TestNewPolicyByNameUnknown: an unknown name, each name of a policy
// that is no longer built (GDSP, LFU, LRU, LRU-K and its aliases), each
// alias that was once accepted, and a name in another case are refused
// with an error that lists exactly the names there are.
func TestNewPolicyByNameUnknown(t *testing.T) {
	have := "(have " + strings.Join(PolicyNames(), ", ") + ")"
	for _, name := range []string{
		"magic", "gdsp", "lfu", "lru", "lru-k", "lruk", "lru2",
		"rateprofile", "rp", "RATE-PROFILE", "onlineby", "online", "online-marking",
		"spaceeffby", "spaceeff", "no-cache", "nocache", "GDS",
	} {
		_, err := NewPolicyByName(name, 1000, 1)
		if err == nil {
			t.Fatalf("%s: unknown policy should error", name)
		}
		if !strings.HasSuffix(err.Error(), have) {
			t.Fatalf("%s: error %q does not end by listing %s", name, err, have)
		}
	}
}
