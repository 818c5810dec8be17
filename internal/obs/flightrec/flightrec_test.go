package flightrec

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"bypassyield/internal/obs"
)

func testRecorder(t *testing.T, cfg Config) (*Recorder, *obs.Registry) {
	t.Helper()
	r := obs.NewRegistry()
	return New(cfg, r), r
}

func TestPublishOutcomes(t *testing.T) {
	rec, reg := testRecorder(t, Config{Capacity: 16, Threshold: time.Hour})

	c := rec.Begin()
	c.SetQuery("select 1", 0xabc)
	rec.Finish(c, errors.New("boom"))

	c = rec.Begin()
	c.SetQuery("select 2", 0)
	c.SetDegraded(true)
	rec.Finish(c, nil)

	c = rec.Begin()
	c.SetQuery("select 3", 0)
	rec.Finish(c, nil) // healthy, under threshold, no reservoir → dropped

	exs := rec.Snapshot()
	if len(exs) != 2 {
		t.Fatalf("published %d exemplars, want 2", len(exs))
	}
	if exs[0].Outcome != OutcomeError || exs[0].Err != "boom" {
		t.Fatalf("first exemplar %+v, want error/boom", exs[0])
	}
	if exs[0].Trace != "0000000000000abc" {
		t.Fatalf("trace = %q", exs[0].Trace)
	}
	if exs[1].Outcome != OutcomeDegraded {
		t.Fatalf("second exemplar outcome %q, want degraded", exs[1].Outcome)
	}
	if rec.Observed() != 3 || rec.Published() != 2 {
		t.Fatalf("observed/published = %d/%d, want 3/2", rec.Observed(), rec.Published())
	}
	s := reg.Snapshot()
	if v := s.CounterValue("obs.exemplars", OutcomeError); v != 1 {
		t.Fatalf("obs.exemplars{error} = %d, want 1", v)
	}
	if v := s.CounterTotal("obs.tail_cause"); v != 2 {
		t.Fatalf("obs.tail_cause total = %d, want 2", v)
	}
	if exs[0].Runtime.Goroutines <= 0 {
		t.Fatal("runtime snapshot missing from exemplar")
	}
}

func TestThresholdAndReservoir(t *testing.T) {
	rec, _ := testRecorder(t, Config{Capacity: 16, Threshold: time.Nanosecond})
	c := rec.Begin()
	c.SetQuery("slow", 0)
	time.Sleep(50 * time.Microsecond)
	rec.Finish(c, nil)
	exs := rec.Snapshot()
	if len(exs) != 1 || exs[0].Outcome != OutcomeSlow {
		t.Fatalf("exemplars %+v, want one slow", exs)
	}
	if exs[0].DurUS <= 0 {
		t.Fatal("slow exemplar has zero duration")
	}

	rec, _ = testRecorder(t, Config{Capacity: 16, Threshold: time.Hour, SampleEvery: 4})
	for i := 0; i < 8; i++ {
		rec.Finish(rec.Begin(), nil)
	}
	exs = rec.Snapshot()
	if len(exs) != 2 {
		t.Fatalf("reservoir published %d, want 2 (every 4th of 8)", len(exs))
	}
	for _, e := range exs {
		if e.Outcome != OutcomeNormal {
			t.Fatalf("reservoir outcome %q, want normal", e.Outcome)
		}
	}
}

func TestAttributionCriticalLeg(t *testing.T) {
	rec, reg := testRecorder(t, Config{Capacity: 16, Threshold: time.Nanosecond})
	c := rec.Begin()
	c.SetQuery("select specobj join photoobj", 7)
	c.SetMediation(100, 20, 30)
	c.SetEncodeUS(10)
	// Two parallel legs: spec finishes last and dominates.
	c.Leg("photo.sdss.org", "fetch", "edr/photoobj", 0, 5, 200, 210, nil)
	c.Leg("spec.sdss.org", "subquery", "specobj", 0, 40, 9000, 9100, nil)
	c.Decision("edr/photoobj", "photo.sdss.org", "load", "", 1024)
	time.Sleep(time.Millisecond)
	rec.Finish(c, nil)

	exs := rec.Snapshot()
	if len(exs) != 1 {
		t.Fatalf("published %d, want 1", len(exs))
	}
	e := exs[0]
	if e.Cause != "wan:spec.sdss.org" {
		t.Fatalf("dominant cause %q, want wan:spec.sdss.org (attribution %+v)", e.Cause, e.Attribution)
	}
	if len(e.Legs) != 2 || len(e.Decisions) != 1 {
		t.Fatalf("legs/decisions = %d/%d, want 2/1", len(e.Legs), len(e.Decisions))
	}
	// Attribution covers the critical leg's slack (wall − pool − rpc).
	if e.CauseUS != 9000+(9100-40-9000) {
		t.Fatalf("cause_us = %d, want 9060", e.CauseUS)
	}
	s := reg.Snapshot()
	if v := s.CounterValue("obs.tail_cause", "wan:spec.sdss.org"); v != 1 {
		t.Fatalf("obs.tail_cause{wan:spec.sdss.org} = %d, want 1", v)
	}
	if v := s.CounterValue("obs.tail_cause_us", "pool-wait"); v != 40 {
		t.Fatalf("obs.tail_cause_us{pool-wait} = %d, want 40", v)
	}
}

// TestLegErrorMarksDegraded: a failed leg makes the exemplar degraded,
// and a query's legs, which fail from goroutines of their own, may
// record at once (run under -race).
func TestLegErrorMarksDegraded(t *testing.T) {
	rec, _ := testRecorder(t, Config{Capacity: 4, Threshold: time.Hour})
	c := rec.Begin()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Leg("spec.sdss.org", "fetch", "edr/specobj", 0, 0, 100, 100, errors.New("reset"))
		}()
	}
	wg.Wait()
	rec.Finish(c, nil)
	exs := rec.Snapshot()
	if len(exs) != 1 || exs[0].Outcome != OutcomeDegraded {
		t.Fatalf("exemplars %+v, want one degraded", exs)
	}
	if len(exs[0].Legs) != 4 || exs[0].Legs[0].Err != "reset" {
		t.Fatalf("legs %+v, want 4 with err reset", exs[0].Legs)
	}
}

func TestRingWrap(t *testing.T) {
	rec, _ := testRecorder(t, Config{Capacity: 4, Threshold: time.Nanosecond})
	for i := 0; i < 10; i++ {
		rec.Finish(rec.Begin(), nil)
	}
	exs := rec.Snapshot()
	if len(exs) != 4 {
		t.Fatalf("snapshot holds %d, want 4", len(exs))
	}
	for i, e := range exs {
		if want := uint64(7 + i); e.Seq != want {
			t.Fatalf("exemplar %d seq %d, want %d", i, e.Seq, want)
		}
	}
}

func TestAnnotate(t *testing.T) {
	rec, _ := testRecorder(t, Config{Capacity: 4, Threshold: time.Nanosecond})
	rec.SetAnnotate(func(e *Exemplar) {
		e.Breakers = append(e.Breakers, BreakerRec{Site: "spec.sdss.org", State: "open"})
	})
	rec.Finish(rec.Begin(), nil)
	exs := rec.Snapshot()
	if len(exs) != 1 || len(exs[0].Breakers) != 1 || exs[0].Breakers[0].State != "open" {
		t.Fatalf("annotate hook did not run: %+v", exs)
	}
}

func TestJSONLSink(t *testing.T) {
	rec, _ := testRecorder(t, Config{Capacity: 4, Threshold: time.Nanosecond})
	var buf bytes.Buffer
	sink := obs.NewJSONL[Exemplar](&buf)
	rec.SetSink(sink.Append)
	c := rec.Begin()
	c.SetQuery("select ra from photoobj", 0xdead)
	rec.Finish(c, nil)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var e Exemplar
	if err := json.Unmarshal([]byte(line), &e); err != nil {
		t.Fatalf("sink line not JSON: %v\n%s", err, line)
	}
	if e.SQL != "select ra from photoobj" || e.Trace != "000000000000dead" {
		t.Fatalf("sink exemplar %+v", e)
	}
	// obs.ReadJSONL takes back what the sink wrote.
	back, err := obs.ReadJSONL[Exemplar](&buf)
	if err != nil || len(back) != 1 || back[0].Trace != e.Trace || back[0].Seq != e.Seq {
		t.Fatalf("ReadJSONL = %+v, %v", back, err)
	}
}

func TestCaptureReuseDoesNotLeak(t *testing.T) {
	rec, _ := testRecorder(t, Config{Capacity: 8, Threshold: time.Nanosecond})
	c := rec.Begin()
	c.SetQuery("first", 1)
	c.Leg("photo.sdss.org", "fetch", "o1", 0, 0, 1, 1, nil)
	c.Decision("o1", "photo.sdss.org", "hit", "", 1)
	rec.Finish(c, nil)

	c = rec.Begin() // pooled: must start clean
	c.SetQuery("second", 2)
	rec.Finish(c, nil)

	exs := rec.Snapshot()
	if len(exs) != 2 {
		t.Fatalf("published %d, want 2", len(exs))
	}
	second := exs[1]
	if second.SQL != "second" || len(second.Legs) != 0 || len(second.Decisions) != 0 {
		t.Fatalf("capture reuse leaked state: %+v", second)
	}
}

func TestFilter(t *testing.T) {
	exs := []Exemplar{
		{Seq: 1, Outcome: OutcomeSlow, DurUS: 100},
		{Seq: 2, Outcome: OutcomeError, DurUS: 50, Trace: "00000000000000ab"},
		{Seq: 3, Outcome: OutcomeSlow, DurUS: 300},
		{Seq: 4, Outcome: OutcomeNormal, DurUS: 10},
	}
	if got := Filter(exs, OutcomeSlow, "", 0, 0); len(got) != 2 {
		t.Fatalf("outcome filter kept %d, want 2", len(got))
	}
	if got := Filter(exs, "", "", 60, 0); len(got) != 2 {
		t.Fatalf("minUS filter kept %d, want 2", len(got))
	}
	if got := Filter(exs, "", "00000000000000ab", 0, 0); len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("trace filter kept %+v, want seq 2", got)
	}
	got := Filter(exs, "", "", 0, 2)
	if len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("limit filter kept %+v, want seqs 3,4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	c := rec.Begin()
	c.SetQuery("x", 1)
	c.SetDegraded(true)
	c.SetMediation(1, 2, 3)
	c.SetEncodeUS(4)
	c.Decision("o", "s", "hit", "", 1)
	c.Leg("s", "fetch", "o", 0, 0, 1, 1, nil)
	_ = c.Now()
	rec.Finish(c, nil)
	rec.SetSink(nil)
	rec.SetAnnotate(nil)
	if rec.Snapshot() != nil || rec.Observed() != 0 || rec.Published() != 0 || rec.Cap() != 0 || rec.ThresholdUS() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	// New with a nil registry must still record.
	r2 := New(Config{Capacity: 2, Threshold: time.Nanosecond}, nil)
	r2.Finish(r2.Begin(), nil)
	if r2.Published() != 1 {
		t.Fatal("recorder without registry must still publish")
	}
}

// TestTailCauses: the tail-cause counters of two daemons read as one
// table, less a before reading — summed by cause, all-zero causes left
// out, ranked by attributed time and then by cause — and other counters
// are not read.
func TestTailCauses(t *testing.T) {
	c := func(name, label string, v int64) obs.CounterSnap {
		return obs.CounterSnap{Name: name, Label: label, Value: v}
	}
	now := obs.Snapshot{Counters: []obs.CounterSnap{
		// The proxy's.
		c("obs.exemplars", "slow", 9),
		c("obs.tail_cause", "wan:spec", 4),
		c("obs.tail_cause_us", "wan:spec", 900),
		c("obs.tail_cause_us", "decide", 0),
		c("obs.tail_cause", "encode", 1),
		c("obs.tail_cause_us", "encode", 300),
		// A node's.
		c("obs.tail_cause", "server-execute", 2),
		c("obs.tail_cause_us", "server-execute", 200),
		c("obs.tail_cause_us", "encode", 100),
		c("obs.tail_cause_us", "queue", 50),
	}}
	want := []TailCause{
		{Cause: "wan:spec", Dominant: 4, TotalUS: 900},
		{Cause: "encode", Dominant: 1, TotalUS: 400},
		{Cause: "server-execute", Dominant: 2, TotalUS: 200},
		{Cause: "queue", TotalUS: 50},
	}
	if got := TailCauses(now, obs.Snapshot{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("TailCauses(now) = %+v, want %+v", got, want)
	}
	before := obs.Snapshot{Counters: []obs.CounterSnap{
		c("obs.tail_cause", "wan:spec", 4),
		c("obs.tail_cause_us", "wan:spec", 900),
		c("obs.tail_cause_us", "encode", 100),
		c("obs.tail_cause_us", "server-execute", 100),
	}}
	want = []TailCause{
		{Cause: "encode", Dominant: 1, TotalUS: 300},
		{Cause: "server-execute", Dominant: 2, TotalUS: 100},
		{Cause: "queue", TotalUS: 50},
	}
	if got := TailCauses(now, before); !reflect.DeepEqual(got, want) {
		t.Fatalf("TailCauses(now, before) = %+v, want %+v", got, want)
	}
	if got := TailCauses(obs.Snapshot{}, obs.Snapshot{}); got != nil {
		t.Fatalf("TailCauses of nothing = %+v, want nil", got)
	}
}
