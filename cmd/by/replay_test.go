package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs/ledger"
	"bypassyield/internal/trace"
	"bypassyield/internal/wire"
	"bypassyield/internal/workload"
)

// startProxy spins an in-process proxy in simulation mode, with the
// decision ledger and shadow sums on so -audit has data. With warm it
// starts as a warm restart does: from the snapshot of a mediator that
// served 200 EDR statements, whose WAN (returned) is in the proxy's
// accounting but was never seen by its shadows.
func startProxy(t *testing.T, warm bool) (addr string, restoredWAN int64, stop func()) {
	t.Helper()
	s := catalog.EDR()
	db, err := engine.Open(s, engine.Config{Seed: 1, SampleEvery: 100000})
	if err != nil {
		t.Fatal(err)
	}
	newMediator := func() *federation.Mediator {
		med, err := federation.New(federation.Config{
			Schema: s, Engine: db,
			Policy:      core.NewRateProfile(core.RateProfileConfig{Capacity: s.TotalBytes() * 4 / 10}),
			Granularity: federation.Columns,
			Ledger:      ledger.New(4096),
			Shadows:     true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return med
	}
	med := newMediator()
	if warm {
		prev := newMediator()
		stream, err := workload.NewStream(workload.EDRProfile())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := prev.Query(stream.Next().SQL); err != nil {
				t.Fatal(err)
			}
		}
		st, err := prev.SnapshotState(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := med.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		restoredWAN = st.Acct.WANBytes()
	}
	proxy := wire.NewProxy(med, federation.Columns, nil)
	proxy.SetLogf(func(string, ...any) {})
	addr, err = proxy.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return addr, restoredWAN, func() { proxy.Close() }
}

func TestRunReplaysTrace(t *testing.T) {
	p := workload.ScaledProfile(workload.EDRProfile(), 500)
	recs, err := workload.Generate(p, federation.Columns)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	if err := trace.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	addr, _, stop := startProxy(t, false)
	defer stop()
	out, err := by("replay", "-addr", addr, "-trace", path, "-limit", "25", "-progress", "0")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "replayed 25 queries (0 failed)") || strings.Contains(out, "counterfactual") {
		t.Fatalf("replay without -audit:\n%s", out)
	}
}

// TestRunAudit: the audit prints the always-bypass diff and the bound,
// as the decisions view does, and its lines add up — realized WAN =
// always-bypass WAN − saved — on a proxy that starts cold and on one
// that starts warm, where the realized figure is the WAN since the
// start, not the restored accounting's.
func TestRunAudit(t *testing.T) {
	p := workload.ScaledProfile(workload.EDRProfile(), 500)
	recs, err := workload.Generate(p, federation.Columns)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	if err := trace.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	mb := func(out, pattern string) float64 {
		t.Helper()
		m := regexp.MustCompile(pattern).FindStringSubmatch(out)
		if m == nil {
			t.Fatalf("audit output has no line matching %q:\n%s", pattern, out)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, start := range []string{"cold", "warm"} {
		warm := start == "warm"
		t.Run(start, func(t *testing.T) {
			addr, restoredWAN, stop := startProxy(t, warm)
			defer stop()
			if warm && restoredWAN == 0 {
				t.Fatal("the restored snapshot carries no WAN: the warm case tests nothing")
			}
			replayed, err := by("replay", "-addr", addr, "-trace", path, "-limit", "25", "-progress", "0", "-audit", "-top", "5")
			if err != nil {
				t.Fatal(err)
			}

			c, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			st, err := c.Scrape(wire.ScrapeMsg{Limit: wire.MaxDecisionLimit})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			renderAudit(&buf, st, 5)
			out := buf.String()
			if !strings.HasSuffix(replayed, out) {
				t.Fatalf("by replay -audit does not end in the audit of the ledger it leaves:\n%s\nwant the suffix\n%s", replayed, out)
			}
			for _, want := range []string{"realized", "always-bypass", "ski-rental lower bound"} {
				if !strings.Contains(out, want) {
					t.Fatalf("audit output missing %q:\n%s", want, out)
				}
			}
			realized := mb(out, `realized\s+WAN\s+(-?[0-9.]+) MB`)
			bypass := mb(out, `always-bypass\s+WAN\s+(-?[0-9.]+) MB`)
			saved := mb(out, `saved\s+(-?[0-9.]+) MB`)
			if math.Abs(bypass-saved-realized) > 0.0015 {
				t.Fatalf("always-bypass %.3f MB − saved %.3f MB != realized %.3f MB:\n%s", bypass, saved, realized, out)
			}
			if want := fmt.Sprintf("%.3f", float64(st.Acct.WANBytes()-restoredWAN)/1e6); fmt.Sprintf("%.3f", realized) != want {
				t.Fatalf("realized WAN %.3f MB, the WAN since the start is %s MB (lifetime %d B, restored %d B):\n%s",
					realized, want, st.Acct.WANBytes(), restoredWAN, out)
			}
		})
	}
}

// TestAuditScrapesOnce: a replay with -audit reads the accounting and
// the ledger in one round trip, one scrape frame at the proxy (the
// check's own scrape is the second).
func TestAuditScrapesOnce(t *testing.T) {
	p := workload.ScaledProfile(workload.EDRProfile(), 500)
	recs, err := workload.Generate(p, federation.Columns)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	if err := trace.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	addr, _, stop := startProxy(t, false)
	defer stop()
	if _, err := by("replay", "-addr", addr, "-trace", path, "-limit", "25", "-progress", "0", "-audit", "-top", "5"); err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Scrape(wire.ScrapeMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Snapshot.CounterValue("wire.frames_rx", "scrape"); got != 2 {
		t.Fatalf("the proxy read %d scrape frames, want the replay's one and this one", got)
	}
	if got, want := st.Snapshot.CounterTotal("wire.frames_rx"), 2+st.Acct.Queries; got != want {
		t.Fatalf("the proxy read %d frames, want %d: one per statement and two scrapes", got, want)
	}
}
