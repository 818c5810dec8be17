package core

import (
	"testing"

	"bypassyield/internal/obs"
)

// TestTelemetryMirrorsAccounting charges accesses through Account,
// mirrors the accounting into a registry and checks the registry agrees
// with the Figure-1 flows, including D_A = D_S + D_C.
func TestTelemetryMirrorsAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	tel := NewTelemetry(reg)
	obj := Object{ID: "edr/photoobj", Site: "photo", Size: 1000, FetchCost: 1000}

	var acct Accounting
	seq := []struct {
		yield int64
		d     Decision
	}{
		{100, Bypass}, {200, Load}, {300, Hit}, {50, Bypass}, {400, Hit},
	}
	for _, query := range [][]int{{0, 1, 2}, {3, 4}} {
		q := Accounting{Queries: 1}
		for _, i := range query {
			if err := Account(&q, obj, seq[i].yield, seq[i].d); err != nil {
				t.Fatal(err)
			}
		}
		acct.Add(q)
		tel.Mirror("test-policy", acct, ShadowStats{})
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue("core.bypass_bytes", ""); got != acct.BypassBytes {
		t.Fatalf("bypass_bytes = %d, want %d", got, acct.BypassBytes)
	}
	if got := snap.CounterValue("core.fetch_bytes", ""); got != acct.FetchBytes {
		t.Fatalf("fetch_bytes = %d, want %d", got, acct.FetchBytes)
	}
	if got := snap.CounterValue("core.cache_bytes", ""); got != acct.CacheBytes {
		t.Fatalf("cache_bytes = %d, want %d", got, acct.CacheBytes)
	}
	if got := snap.CounterValue("core.yield_bytes", ""); got != acct.YieldBytes {
		t.Fatalf("yield_bytes = %d, want %d", got, acct.YieldBytes)
	}
	// Conservation: D_A = D_S + D_C (uniform network).
	da := snap.CounterValue("core.bypass_bytes", "") + snap.CounterValue("core.cache_bytes", "")
	if da != acct.DeliveredBytes() {
		t.Fatalf("D_A from registry = %d, accounting = %d", da, acct.DeliveredBytes())
	}
	// Per-verdict decision counts.
	for verdict, want := range map[string]int64{"bypass": 2, "load": 1, "hit": 2} {
		if got := snap.CounterValue("core.decisions", "test-policy/"+verdict); got != want {
			t.Fatalf("decisions[%s] = %d, want %d", verdict, got, want)
		}
	}
	if got := snap.CounterValue("core.accesses", ""); got != acct.Accesses {
		t.Fatalf("accesses = %d, want %d", got, acct.Accesses)
	}
	// No eviction yet, so no eviction label; the first one brings it.
	for _, c := range snap.Counters {
		if c.Name == "core.evictions" {
			t.Fatalf("core.evictions{%s} = %d before any eviction", c.Label, c.Value)
		}
	}
	acct.Evictions = 3
	tel.Mirror("test-policy", acct, ShadowStats{})
	if got := reg.Snapshot().CounterValue("core.evictions", "test-policy"); got != 3 {
		t.Fatalf("core.evictions{test-policy} = %d, want 3", got)
	}
}

func TestTelemetryNilSafe(t *testing.T) {
	var tel *Telemetry
	tel.Mirror("p", Accounting{Accesses: 1, Hits: 1, YieldBytes: 1, CacheBytes: 1}, ShadowStats{})
	tel.RecordForced("s", 1)
	tel.RecordFailedLeg("s")
	tel.EpisodeOpened()
	tel.EpisodeClosed()
	if NewTelemetry(nil) != nil {
		t.Fatal("NewTelemetry(nil) should be nil (free no-op)")
	}
}

// TestSimulatorTelemetry runs a tiny trace through the Simulator with
// telemetry attached to the policy and checks the policy publishes its
// episode churn while the Simulator drives it.
func TestSimulatorTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	obj := Object{ID: "o1", Size: 100, FetchCost: 100}
	objs := map[ObjectID]Object{"o1": obj}
	pol := NewRateProfile(RateProfileConfig{Capacity: 1000, Episodes: EpisodeConfig{K: 2}})
	pol.SetTelemetry(NewTelemetry(reg))
	var reqs []Request
	for i := int64(1); i <= 20; i++ {
		seq := i
		if i > 10 {
			seq = i + 10 // a gap > K forces an episode close/reopen
		}
		reqs = append(reqs, Request{Seq: seq, Accesses: []Access{{Object: "o1", Yield: 90}}})
	}
	sim := &Simulator{Policy: pol, Objects: objs}
	if _, err := sim.Run(reqs); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	opened, closed := snap.CounterValue("core.episodes_opened", ""), snap.CounterValue("core.episodes_closed", "")
	if opened == 0 {
		t.Fatal("no episodes opened")
	}
	if closed > opened {
		t.Fatalf("episodes closed (%d) > opened (%d)", closed, opened)
	}
}
