package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// policies maps each name NewPolicyByName accepts to the constructor
// of the policy that reports exactly that name from Name.
var policies = map[string]func(capacity, seed int64) Policy{
	"rate-profile":      func(c, _ int64) Policy { return NewRateProfile(RateProfileConfig{Capacity: c}) },
	"online-by":         func(c, _ int64) Policy { return NewOnlineBY(NewLandlord(c)) },
	"online-by-marking": func(c, _ int64) Policy { return NewOnlineBY(NewSizeClassMarking(c)) },
	"space-eff-by":      func(c, seed int64) Policy { return NewSpaceEffBY(NewLandlord(c), rand.NewSource(seed)) },
	"gds":               func(c, _ int64) Policy { return NewGDS(c) },
	"none":              func(int64, int64) Policy { return NewNoCache() },
}

// PolicyNames lists the policy names NewPolicyByName accepts, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policies))
	for name := range policies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// NewPolicyByName constructs the policy whose Name is name. The seed
// feeds randomized policies (SpaceEffBY); deterministic policies
// ignore it. The static-optimal policy needs the whole trace up front
// and is not constructible by name — use PlanStatic.
func NewPolicyByName(name string, capacity int64, seed int64) (Policy, error) {
	mk, ok := policies[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (have %s)",
			name, strings.Join(PolicyNames(), ", "))
	}
	return mk(capacity, seed), nil
}
