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

func TestNewPolicyByNameAliases(t *testing.T) {
	for alias, want := range map[string]string{
		"rp":           "rate-profile",
		"RATE-PROFILE": "rate-profile",
		"online":       "online-by",
		"spaceeff":     "space-eff-by",
		"nocache":      "no-cache",
	} {
		p, err := NewPolicyByName(alias, 1000, 1)
		if err != nil {
			t.Fatalf("%s: %v", alias, err)
		}
		if p.Name() != want {
			t.Fatalf("%s → %s, want %s", alias, p.Name(), want)
		}
	}
}

// TestNewPolicyByNameUnknown: an unknown name, and each name of a
// policy that is no longer built (GDSP, LFU, LRU-K and its aliases), is
// refused with an error that lists exactly the names there are.
func TestNewPolicyByNameUnknown(t *testing.T) {
	have := "(have " + strings.Join(PolicyNames(), ", ") + ")"
	for _, name := range []string{"magic", "gdsp", "lfu", "lru-k", "lruk", "lru2"} {
		_, err := NewPolicyByName(name, 1000, 1)
		if err == nil {
			t.Fatalf("%s: unknown policy should error", name)
		}
		if !strings.HasSuffix(err.Error(), have) {
			t.Fatalf("%s: error %q does not end by listing %s", name, err, have)
		}
	}
}
