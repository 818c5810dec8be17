package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// PolicyNames lists the policy names NewPolicyByName accepts, for CLI
// help text.
func PolicyNames() []string {
	names := []string{
		"rate-profile", "online-by", "online-by-marking", "space-eff-by",
		"gds", "none",
	}
	sort.Strings(names)
	return names
}

// NewPolicyByName constructs a policy from its CLI name. The seed
// feeds randomized policies (SpaceEffBY); deterministic policies
// ignore it. The static-optimal policy needs the whole trace up front
// and is not constructible by name — use PlanStatic.
func NewPolicyByName(name string, capacity int64, seed int64) (Policy, error) {
	switch strings.ToLower(name) {
	case "rate-profile", "rateprofile", "rp":
		return NewRateProfile(RateProfileConfig{Capacity: capacity}), nil
	case "online-by", "onlineby", "online":
		return NewOnlineBY(NewLandlord(capacity)), nil
	case "online-by-marking", "online-marking":
		return NewOnlineBY(NewSizeClassMarking(capacity)), nil
	case "space-eff-by", "spaceeffby", "spaceeff":
		return NewSpaceEffBY(NewLandlord(capacity), rand.NewSource(seed)), nil
	case "gds":
		return NewGDS(capacity), nil
	case "none", "no-cache", "nocache":
		return NewNoCache(), nil
	default:
		return nil, fmt.Errorf("core: unknown policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
}
