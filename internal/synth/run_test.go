package synth

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bypassyield/internal/obs"
	"bypassyield/internal/wire"
)

// stubServer is a minimal wire-speaking endpoint: every MsgQuery gets
// a fixed ResultMsg after delay. It stands in for byproxyd so run
// tests exercise only the harness's own behavior.
func stubServer(t *testing.T, delay time.Duration, res wire.ResultMsg) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					typ, _, _, err := wire.ReadFrame(conn)
					if err != nil || typ != wire.MsgQuery {
						return
					}
					if delay > 0 {
						time.Sleep(delay)
					}
					if _, err := wire.WriteFrame(conn, wire.MsgResult, res); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRunOpenLoopSheds is the acceptance proof of open-loop
// semantics: a ramp that outruns a deliberately slow server must show
// achieved < target with the shed counter accounting for the gap —
// the arrival schedule never stretches to match the server.
func TestRunOpenLoopSheds(t *testing.T) {
	// 30ms service time with 4 in-flight slots caps throughput at
	// ~133 rps; the ramp asks for up to 400.
	addr := stubServer(t, 30*time.Millisecond, wire.ResultMsg{Columns: []string{"x"}, Rows: 1, Bytes: 100})
	sc := &Scenario{
		Name:    "overload-ramp",
		Seed:    21,
		Arrival: ArrivalUniform,
		Slots:   []Slot{{Name: "ramp", Shape: ShapeRamp, RPS: 20, ToRPS: 400, Duration: seconds(2)}},
	}
	rep, err := Run(context.Background(), sc, RunConfig{
		Addr:         addr,
		MaxInflight:  4,
		SkipScrape:   true,
		DrainTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed == 0 {
		t.Fatalf("overloaded run shed nothing: %+v", rep)
	}
	if rep.AchievedRPS >= rep.TargetRPS {
		t.Fatalf("achieved %.1f rps ≥ target %.1f under overload", rep.AchievedRPS, rep.TargetRPS)
	}
	// The open-loop accounting identities hold exactly: every target
	// op is dispatched, shed, or canceled; every dispatched op
	// completes, errors, or is abandoned at drain.
	if got := rep.Dispatched + rep.Shed + rep.Canceled; got != int64(rep.TargetOps) {
		t.Fatalf("dispatched %d + shed %d + canceled %d = %d ≠ target %d",
			rep.Dispatched, rep.Shed, rep.Canceled, got, rep.TargetOps)
	}
	if got := rep.Completed + rep.Errors + rep.Abandoned; got != rep.Dispatched {
		t.Fatalf("completed %d + errors %d + abandoned %d = %d ≠ dispatched %d",
			rep.Completed, rep.Errors, rep.Abandoned, got, rep.Dispatched)
	}
	// Wall time must not stretch with the backlog: the schedule is 2s,
	// the drain adds at most a few service times.
	if rep.WallSeconds > 4 {
		t.Fatalf("wall %.1fs: the run queued instead of shedding", rep.WallSeconds)
	}
}

// TestRunSteady: an unloaded steady run completes everything, sheds
// nothing, and fills in the latency/SLO/class accounting.
func TestRunSteady(t *testing.T) {
	addr := stubServer(t, 0, wire.ResultMsg{Columns: []string{"x"}, Rows: 2, Bytes: 250})
	sc := &Scenario{
		Name:    "steady-smoke",
		Seed:    7,
		Arrival: ArrivalUniform,
		Slots:   []Slot{{Shape: ShapeConstant, RPS: 200, Duration: seconds(1)}},
	}
	reg := obs.NewRegistry()
	rep, err := Run(context.Background(), sc, RunConfig{Addr: addr, SkipScrape: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TargetOps != 200 {
		t.Fatalf("target ops = %d, want 200 (uniform 200 rps × 1s)", rep.TargetOps)
	}
	if rep.Completed != 200 || rep.Shed != 0 || rep.Errors != 0 || rep.Degraded != 0 {
		t.Fatalf("steady run: %+v", rep)
	}
	if rep.BytesDelivered != 200*250 {
		t.Fatalf("bytes = %d, want %d", rep.BytesDelivered, 200*250)
	}
	if rep.Latency.Count != 200 || rep.Latency.P50US <= 0 || rep.Latency.P99US < rep.Latency.P50US {
		t.Fatalf("latency = %+v", rep.Latency)
	}
	if rep.Latency.MaxUS <= 0 {
		t.Fatalf("max latency = %d", rep.Latency.MaxUS)
	}
	// The layout those percentiles are read from resolves 5%: one
	// observation at each of 1..10000 × unit µs, from a cache hit's
	// scale to a drain timeout's, has its quantiles at known values.
	for _, unit := range []int64{1, 37, 1400} {
		h := reg.Histogram(fmt.Sprintf("known.%d", unit), LatencyBuckets())
		for i := int64(1); i <= 10_000; i++ {
			h.Observe(i * unit)
		}
		for _, q := range []struct {
			q    float64
			want int64
		}{{0.50, 5_000 * unit}, {0.99, 9_900 * unit}, {0.999, 9_990 * unit}} {
			if got := h.Quantile(q.q); got < q.want || float64(got) > 1.05*float64(q.want) {
				t.Errorf("unit %dµs: q%v = %dµs, want %dµs to 5%% above", unit, q.q, got, q.want)
			}
		}
	}
	if rep.SLO.Attainment != 1 || rep.SLO.Met != 200 {
		t.Fatalf("slo = %+v (local stub should be well inside %v)", rep.SLO, DefaultSLO)
	}
	if len(rep.Classes) == 0 {
		t.Fatal("no per-class summaries")
	}
	var classTotal int64
	for _, c := range rep.Classes {
		classTotal += c.Count
	}
	if classTotal != rep.Completed {
		t.Fatalf("class counts sum to %d, want %d", classTotal, rep.Completed)
	}
	if rep.AchievedRPS < 150 || rep.AchievedRPS > 250 {
		t.Fatalf("achieved = %.1f rps, want ≈ 200", rep.AchievedRPS)
	}
	// The run also feeds the shared registry for `by watch`.
	snap := reg.Snapshot()
	if got := snap.CounterValue("synth.completed", ""); got != 200 {
		t.Fatalf("synth.completed = %d", got)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"steady-smoke", "achieved", "p999", "per class"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, sb.String())
		}
	}
}

// TestLatencyFromIntendedTime: every dial stalls until one instant,
// 200ms after the first begins, so the ten arrivals due at 0, 10, …,
// 90ms each wait through the rest of the stall on a fresh dial. A
// latency runs from the arrival's intended time, so each includes its
// share of the stall: the first's is all of it, the last's 110ms. The
// dispatcher itself was on time, so its lag stays below the stall.
func TestLatencyFromIntendedTime(t *testing.T) {
	const stall = 200 * time.Millisecond
	addr := stubServer(t, 0, wire.ResultMsg{Rows: 1, Bytes: 1})
	var once sync.Once
	var until time.Time
	sc := &Scenario{
		Name:    "stalled-dial",
		Seed:    1,
		Arrival: ArrivalUniform,
		Slots:   []Slot{{Shape: ShapeConstant, RPS: 100, Duration: seconds(0.1)}},
	}
	rep, err := Run(context.Background(), sc, RunConfig{
		Addr:       addr,
		SkipScrape: true,
		Dialer: func(addr string) (net.Conn, error) {
			once.Do(func() { until = time.Now().Add(stall) })
			time.Sleep(time.Until(until))
			return net.Dial("tcp", addr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != 10 {
		t.Fatalf("stalled run: %+v", rep)
	}
	if min := (stall - 90*time.Millisecond).Microseconds(); rep.Latency.P50US < min || rep.Latency.MaxUS < stall.Microseconds() {
		t.Fatalf("latency %+v leaves out the stall: want every arrival at ≥ %dµs, the first at ≥ %dµs",
			rep.Latency, min, stall.Microseconds())
	}
	if rep.Latency.LagMaxUS >= stall.Microseconds() {
		t.Fatalf("dispatch lag max %dµs: the stall was in the dial, not the dispatcher", rep.Latency.LagMaxUS)
	}
}

// TestRunDegraded: partial results count as degraded, not as errors.
func TestRunDegraded(t *testing.T) {
	addr := stubServer(t, 0, wire.ResultMsg{
		Rows: 1, Bytes: 10, Partial: true,
		SiteErrors: []wire.SiteErrorMsg{{Site: "spec.sdss.org", Error: "breaker open"}},
	})
	sc := &Scenario{
		Name:    "degraded",
		Seed:    3,
		Arrival: ArrivalUniform,
		Slots:   []Slot{{Shape: ShapeConstant, RPS: 50, Duration: seconds(1)}},
	}
	rep, err := Run(context.Background(), sc, RunConfig{Addr: addr, SkipScrape: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 || rep.Completed != 50 || rep.Degraded != 50 {
		t.Fatalf("degraded run: %+v", rep)
	}
}

// TestRunDialFailure: a dead target yields a clean report full of
// errors, not a Run error — failures under chaos are data.
func TestRunDialFailure(t *testing.T) {
	sc := &Scenario{
		Name:    "dead-target",
		Seed:    5,
		Arrival: ArrivalUniform,
		Slots:   []Slot{{Shape: ShapeConstant, RPS: 40, Duration: seconds(1)}},
	}
	rep, err := Run(context.Background(), sc, RunConfig{
		Addr:       "127.0.0.1:1",
		SkipScrape: true,
		Dialer: func(addr string) (net.Conn, error) {
			return nil, fmt.Errorf("connection refused")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != rep.Dispatched || rep.Completed != 0 {
		t.Fatalf("dead-target run: %+v", rep)
	}
}

// TestRunCancel: canceling mid-schedule accounts the undispatched
// tail as Canceled and still satisfies the identities.
func TestRunCancel(t *testing.T) {
	addr := stubServer(t, 0, wire.ResultMsg{Rows: 1, Bytes: 1})
	sc := &Scenario{
		Name:    "cancel",
		Seed:    13,
		Arrival: ArrivalUniform,
		Slots:   []Slot{{Shape: ShapeConstant, RPS: 100, Duration: seconds(5)}},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	rep, err := Run(ctx, sc, RunConfig{Addr: addr, SkipScrape: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Canceled == 0 {
		t.Fatalf("canceled run reports no cancellations: %+v", rep)
	}
	if got := rep.Dispatched + rep.Shed + rep.Canceled; got != int64(rep.TargetOps) {
		t.Fatalf("identity broken after cancel: %d ≠ %d", got, rep.TargetOps)
	}
}
