package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
)

// writeExemplarLogs leaves two -exemplar-out files as byproxyd and bydbd
// write them with -flight-sample 1: the proxy's holds a bypassed query
// (trace ab: a fetch and a sub-query leg), a second query (trace cd: one
// sub-query leg) and one the client sent no id with; the node's holds
// its execution of the first query's sub-query.
func writeExemplarLogs(t *testing.T) (proxyLog, nodeLog string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name string, exs ...flightrec.Exemplar) string {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sink := obs.NewJSONL[flightrec.Exemplar](f)
		for _, e := range exs {
			sink.Append(e)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}
	const ab, cd = "00000000000000ab", "00000000000000cd"
	proxyLog = write("proxy.jsonl",
		flightrec.Exemplar{
			Seq: 1, Trace: ab, SQL: "select ra from photoobj where ra < 10", DurUS: 80, Outcome: flightrec.OutcomeNormal,
			ExecUS: 7, DecideWaitUS: 1, DecideUS: 10, EncodeUS: 5,
			Legs: []flightrec.LegRec{
				{Site: "photo.sdss.org", Kind: "fetch", Object: "edr/photoobj.ra", StartUS: 20, PoolWaitUS: 1, RPCUS: 30, WallUS: 35},
				{Site: "photo.sdss.org", Kind: "subquery", StartUS: 22, RPCUS: 40, WallUS: 41},
			},
		},
		flightrec.Exemplar{
			Seq: 2, Trace: cd, SQL: "select z from specobj where z < 1", DurUS: 50, Outcome: flightrec.OutcomeNormal,
			Legs: []flightrec.LegRec{{Site: "spec.sdss.org", Kind: "subquery", StartUS: 15, RPCUS: 25, WallUS: 26}},
		},
		flightrec.Exemplar{Seq: 3, SQL: "select 1 from photoobj", DurUS: 9, Outcome: flightrec.OutcomeNormal},
	)
	nodeLog = write("photo.jsonl", flightrec.Exemplar{
		Seq: 1, Trace: ab, SQL: "select ra from photoobj where ra < 10", DurUS: 30, Outcome: flightrec.OutcomeNormal, ExecUS: 25,
	})
	return proxyLog, nodeLog
}

func TestRunExemplars(t *testing.T) {
	proxyLog, nodeLog := writeExemplarLogs(t)
	dir := filepath.Dir(proxyLog)
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.jsonl")
	good, err := os.ReadFile(nodeLog)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, append(good, "{not json\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	const traceAB, traceCD = "trace 00000000000000ab", "trace 00000000000000cd"

	for name, c := range map[string]struct {
		paths   []string
		wantErr []string       // substrings of the error; nil = must succeed
		count   map[string]int // substring → occurrences in the output
	}{
		"proxy and node merge by trace id": {
			paths: []string{proxyLog, nodeLog},
			count: map[string]int{
				"4 exemplars from 2 files, 1 without a trace id":               1,
				"merged traces (2 total, showing 2)":                           1,
				traceAB + "  (2 daemon views)":                                 1, // one merged view per id
				traceCD + "  (1 daemon views)":                                 1,
				"phases: execute 0.007ms, decide-wait 0.001ms, decide 0.010ms": 1,
				// A bar per leg, from its start offset across its wall time.
				"|       =============          |  fetch    edr/photoobj.ra @ photo.sdss.org": 1,
				"|        ===============       |  subquery photo.sdss.org":                   1,
				"|         ===============      |  subquery spec.sdss.org":                    1,
				"select 1 from photoobj": 0, // no id, nothing to join on
			},
		},
		"the proxy log alone": {
			paths: []string{proxyLog},
			count: map[string]int{traceAB + "  (1 daemon views)": 1, "|  fetch ": 1, "|  subquery ": 2},
		},
		"the node log alone has no legs": {
			paths: []string{nodeLog},
			count: map[string]int{traceAB + "  (1 daemon views)": 1, "|  fetch ": 0, "|  subquery ": 0},
		},
		"a malformed line names file and line": {paths: []string{proxyLog, bad}, wantErr: []string{bad, "line 2"}},
		"an absent file":                       {paths: []string{filepath.Join(dir, "absent.jsonl")}, wantErr: []string{"absent.jsonl"}},
		"a log without traced exemplars":       {paths: []string{empty}, wantErr: []string{"no exemplar with a trace id"}},
	} {
		out, err := by("exemplars", "-logs", strings.Join(c.paths, ","), "-top", "10")
		if c.wantErr != nil {
			for _, want := range c.wantErr {
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s: err = %v, want one naming %q", name, err, want)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for sub, n := range c.count {
			if got := strings.Count(out, sub); got != n {
				t.Errorf("%s: %q occurs %d times, want %d:\n%s", name, sub, got, n, out)
			}
		}
	}
}

func TestWaterfallBar(t *testing.T) {
	if got := waterfallBar(0, 1, 1); !strings.HasPrefix(got, "==") || len(got) != waterfallWidth {
		t.Fatalf("full-extent bar = %q", got)
	}
	if got := waterfallBar(0, 0, 0); strings.Contains(got, "=") {
		t.Fatalf("zero-total bar = %q", got)
	}
	// A zero-duration leg still gets one visible cell.
	if got := waterfallBar(0.5, 0, 1); strings.Count(got, "=") != 1 {
		t.Fatalf("point leg bar = %q", got)
	}
	// Offset at the extreme right stays in bounds.
	if got := waterfallBar(1, 1, 1); len(got) != waterfallWidth {
		t.Fatalf("clamped bar = %q", got)
	}
}
