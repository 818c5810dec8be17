package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/faultnet"
)

// TestMain runs the binary's main instead of the tests when BY_MAIN is
// set, so a test can run a command line as a process and read its exit
// status (byExec).
func TestMain(m *testing.M) {
	if os.Getenv("BY_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// byExec runs one command line of the binary as a process and returns
// its exit status and standard error.
func byExec(t *testing.T, argv ...string) (code int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], argv...)
	cmd.Env = append(os.Environ(), "BY_MAIN=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	if err := cmd.Run(); err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatal(err)
		}
		return ee.ExitCode(), errBuf.String()
	}
	return 0, errBuf.String()
}

// by runs one command line of the binary in the test's process and
// returns what it printed on standard output.
func by(argv ...string) (string, error) {
	var out bytes.Buffer
	err := run(env{context.Background(), strings.NewReader(""), &out, io.Discard}, argv)
	return out.String(), err
}

// TestSubcommandSurface pins every subcommand's options: adding,
// renaming or removing a flag, or changing its default, is a reviewed
// edit of this table.
func TestSubcommandSurface(t *testing.T) {
	const addr, dial = "localhost:7100", "5s"
	want := map[string]map[string]string{
		"bench":     {"cache": "0.4", "exp": "all", "format": "text", "out": "", "q": "false", "scale": "1"},
		"trace":     {"granularity": "columns", "out": "", "preprocess": "false", "release": "edr", "scale": "1", "seed": "0"},
		"analyze":   {"preprocess": "true", "top": "10", "trace": ""},
		"query":     {"addr": addr, "dial-timeout": dial, "rows": "true"},
		"stats":     {"addr": addr, "dial-timeout": dial},
		"replay":    {"addr": addr, "audit": "false", "dial-timeout": dial, "limit": "0", "progress": "500", "top": "5", "trace": ""},
		"metrics":   {"addr": addr, "dial-timeout": dial, "json": "false"},
		"watch":     {"addr": addr, "dial-timeout": dial, "every": "1s"},
		"decisions": {"action": "", "addr": addr, "dial-timeout": dial, "json": "false", "limit": "0", "object": "", "top": "10", "trace-id": ""},
		"tail": {"addr": addr, "dial-timeout": dial, "json": "false", "limit": "0", "min-ms": "0", "outcome": "",
			"top": "10", "trace-id": ""},
		"federation": {"addrs": "", "dial-timeout": dial, "json": "false", "limit": "0", "min-ms": "0", "outcome": "",
			"top": "10", "trace-id": ""},
		"exemplars": {"logs": "", "top": "10"},
		"synth": {"addr": addr, "arrival": "", "dial-timeout": dial, "drain-timeout": "30s", "json": "false",
			"max-inflight": "64", "no-scrape": "false", "out": "", "quiet": "false", "release": "", "rps-scale": "1",
			"scenario": "steady", "seed": "0", "slo": "500ms", "slo-fail": "0", "slots": "", "spec": "",
			"time-scale": "1", "wait": "0s"},
	}
	var names []string
	for _, c := range commands {
		names = append(names, c.name)
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.flags(fs)
		got := map[string]string{}
		fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
		if !maps.Equal(got, want[c.name]) {
			t.Errorf("by %s: flags and defaults = %v (%d)\nwant %v (%d)", c.name, got, len(got), want[c.name], len(want[c.name]))
		}
	}
	if len(names) != len(want) {
		t.Fatalf("subcommands = %q, want the %d of the table", names, len(want))
	}
}

// TestNoSubcommand: the binary alone, or with a name it does not know,
// lists the subcommands and exits 2; a subcommand's -h lists its flags
// and exits 0.
func TestNoSubcommand(t *testing.T) {
	for _, argv := range [][]string{nil, {"nope"}, {"-h"}, {"-exp", "fig6"}} {
		code, stderr := byExec(t, argv...)
		if code != 2 {
			t.Errorf("by %q exits %d, want 2", argv, code)
		}
		for _, c := range commands {
			if !strings.Contains(stderr, "\n  "+c.name+" ") {
				t.Errorf("by %q: the usage does not list %s:\n%s", argv, c.name, stderr)
			}
		}
	}
	if code, stderr := byExec(t, "watch", "-h"); code != 0 || !strings.Contains(stderr, "-every interval") {
		t.Errorf("by watch -h exits %d, want 0, having listed -every:\n%s", code, stderr)
	}
}

// TestSilentFlagsRefused: a flag, or an argument, that the old tools
// took and then ignored is refused with a non-zero exit: by the flag
// package where the subcommand does not declare it, by the subcommand
// where it needs another flag.
func TestSilentFlagsRefused(t *testing.T) {
	for _, c := range []struct {
		argv []string
		code int
		want string
	}{
		// The watch never printed JSON.
		{[]string{"watch", "-json"}, 2, "flag provided but not defined: -json"},
		// -tail won over -decisions, -decisions over -watch.
		{[]string{"tail", "-decisions"}, 2, "flag provided but not defined: -decisions"},
		{[]string{"decisions", "-tail"}, 2, "flag provided but not defined: -tail"},
		{[]string{"decisions", "-watch", "1s"}, 2, "flag provided but not defined: -watch"},
		{[]string{"decisions", "-every", "1s"}, 2, "flag provided but not defined: -every"},
		// -object and -action filter the ledger, which only decisions shows.
		{[]string{"tail", "-object", "edr/photoobj"}, 2, "flag provided but not defined: -object"},
		{[]string{"tail", "-action", "load"}, 2, "flag provided but not defined: -action"},
		{[]string{"metrics", "-object", "edr/photoobj"}, 2, "flag provided but not defined: -object"},
		{[]string{"federation", "-action", "load"}, 2, "flag provided but not defined: -action"},
		// A statement given to the stats view was dropped.
		{[]string{"stats", "select 1"}, 2, `by stats takes no arguments, got ["select 1"]`},
		// -top ranks the audit, which only -audit prints.
		{[]string{"replay", "-trace", "t.jsonl", "-top", "3"}, 1, "-top ranks the audit's regret contributors: it needs -audit"},
		// A mode flag is no flag of any subcommand.
		{[]string{"metrics", "-watch", "1s"}, 2, "flag provided but not defined: -watch"},
		{[]string{"metrics", "-tail"}, 2, "flag provided but not defined: -tail"},
		{[]string{"query", "-stats"}, 2, "flag provided but not defined: -stats"},
		{[]string{"synth", "-list"}, 2, "flag provided but not defined: -list"},
	} {
		code, stderr := byExec(t, c.argv...)
		if code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("by %q: exit %d, want %d, with %q in:\n%s", c.argv, code, c.code, c.want, stderr)
		}
	}
}

// errorCase is one invocation that must fail with want in its error.
type errorCase struct {
	argv []string
	want string
}

// wantErrors runs each case and checks it fails with its message.
func wantErrors(t *testing.T, cases []errorCase) {
	t.Helper()
	for _, c := range cases {
		if _, err := by(c.argv...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("by %q: error %v, want one with %q", c.argv, err, c.want)
		}
	}
}

// TestRunErrors: what a subcommand cannot run is an error, and a value
// out of a flag's range is refused by the flag package with the range
// named, not coerced. The bench, trace, analyze and replay cases are in
// the tests named after those subcommands below.
func TestRunErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wantErrors(t, []errorCase{
		{[]string{"federation"}, "-addrs is required"},
		{[]string{"exemplars"}, "-logs is required"},

		// The synth scales divide and multiply; at or below 0 they were 1.
		{[]string{"synth", "-time-scale", "0"}, `invalid value "0" for flag -time-scale: out of range: want > 0`},
		{[]string{"synth", "-time-scale", "NaN"}, `invalid value "NaN" for flag -time-scale: out of range: want > 0`},
		{[]string{"synth", "-rps-scale", "-1"}, `invalid value "-1" for flag -rps-scale: out of range: want > 0`},
		{[]string{"synth", "-rps-scale", "0"}, `invalid value "0" for flag -rps-scale: out of range: want > 0`},
		{[]string{"watch", "-every", "0s"}, `invalid value "0s" for flag -every: out of range: want > 0`},
		// A negative -top sliced a ranking out of bounds.
		{[]string{"decisions", "-top", "-1"}, `invalid value "-1" for flag -top: out of range: want ≥ 0`},
		{[]string{"tail", "-top", "-1"}, `invalid value "-1" for flag -top: out of range: want ≥ 0`},
		{[]string{"federation", "-addrs", "127.0.0.1:1", "-top", "-1"}, `invalid value "-1" for flag -top: out of range: want ≥ 0`},
		{[]string{"exemplars", "-logs", empty, "-top", "-1"}, `invalid value "-1" for flag -top: out of range: want ≥ 0`},
	})
}

// TestBenchErrors: an unknown experiment or format is an error, and a
// -scale or -cache out of range is refused, not coerced.
func TestBenchErrors(t *testing.T) {
	wantErrors(t, []errorCase{
		{[]string{"bench", "-exp", "nope", "-scale", "100", "-q"}, `unknown experiment "nope"`},
		{[]string{"bench", "-exp", "fig6", "-scale", "100", "-format", "yaml", "-q"}, `unknown format "yaml"`},
		// -scale divides; below 1 the library ran at full scale.
		{[]string{"bench", "-exp", "fig7", "-scale", "-5", "-q"}, `invalid value "-5" for flag -scale: out of range: want ≥ 1`},
		{[]string{"bench", "-exp", "fig7", "-scale", "0", "-q"}, `invalid value "0" for flag -scale: out of range: want ≥ 1`},
	})

	// A cache outside (0, 1] is refused, not replaced by the default,
	// and before the output file is made.
	for _, pct := range []string{"40", "1.01", "0", "-1", "NaN"} {
		out := filepath.Join(t.TempDir(), "fig7.txt")
		_, err := by("bench", "-exp", "fig7", "-scale", "100", "-cache", pct, "-out", out, "-q")
		if err == nil || !strings.Contains(err.Error(), "(0, 1]") {
			t.Errorf("-cache %s: error %v, want one naming the range (0, 1]", pct, err)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("-cache %s: the output file was made", pct)
		}
	}
}

// TestTraceErrors: an unknown release or granularity is an error, and a
// -scale below 1 is refused.
func TestTraceErrors(t *testing.T) {
	wantErrors(t, []errorCase{
		{[]string{"trace", "-release", "dr9", "-scale", "300"}, "dr9"},
		{[]string{"trace", "-granularity", "rows", "-scale", "300"}, "rows"},
		{[]string{"trace", "-scale", "0"}, `invalid value "0" for flag -scale: out of range: want ≥ 1`},
	})
}

// TestAnalyzeErrors: analyze needs a trace that exists, and a -top that
// is a count.
func TestAnalyzeErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wantErrors(t, []errorCase{
		{[]string{"analyze"}, "-trace is required"},
		{[]string{"analyze", "-trace", filepath.Join(dir, "absent.jsonl")}, "absent.jsonl"},
		{[]string{"analyze", "-trace", empty, "-top", "-1"}, `invalid value "-1" for flag -top: out of range: want ≥ 0`},
		{[]string{"analyze", "-top", "x"}, `invalid value "x" for flag -top`},
	})
}

// TestReplayErrors: replay needs a trace that exists and a proxy that
// answers, and a -top that is a count.
func TestReplayErrors(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	wantErrors(t, []errorCase{
		{[]string{"replay", "-addr", "127.0.0.1:1"}, "-trace is required"},
		{[]string{"replay", "-addr", "127.0.0.1:1", "-trace", filepath.Join(dir, "absent.jsonl")}, "absent.jsonl"},
		{[]string{"replay", "-addr", "127.0.0.1:1", "-trace", empty}, "connection refused"},
		{[]string{"replay", "-audit", "-top", "-1"}, `invalid value "-1" for flag -top: out of range: want ≥ 0`},
	})
}

// TestMappingTable runs the invocation that replaced each of the old
// tools' (README's table), in order: the trace the second row writes is
// the one the third analyzes and the sixth replays. A row's output is
// what the command printed on stdout and stderr.
func TestMappingTable(t *testing.T) {
	addrs := startFederation(t, "", faultnet.Faults{})
	proxy := addrs[0]
	dir := t.TempDir()
	tr := filepath.Join(dir, "edr.jsonl.gz")
	proxyLog, nodeLog := writeExemplarLogs(t)
	for _, row := range []struct {
		was  string
		argv []string
		want string
		stop time.Duration // ends a command that runs until stopped
	}{
		{"bybench", []string{"bench", "-exp", "fig6", "-scale", "100", "-q"}, "fig6", 0},
		{"bytrace", []string{"trace", "-scale", "300", "-out", tr}, "", 0},
		{"byinspect -trace", []string{"analyze", "-trace", tr}, "after preprocessing", 0},
		{"byquery SQL", []string{"query", "-addr", proxy, "select ra from photoobj where ra < 10"}, "rows,", 0},
		{"byquery -stats", []string{"stats", "-addr", proxy}, "byte hit rate:", 0},
		{"byreplay -audit -top", []string{"replay", "-addr", proxy, "-trace", tr, "-limit", "25", "-progress", "0", "-audit", "-top", "3"}, "replayed 25 queries", 0},
		{"byinspect -addr", []string{"metrics", "-addr", proxy}, "metrics from byproxyd", 0},
		{"byinspect -addr -json", []string{"metrics", "-addr", proxy, "-json"}, `"source": "byproxyd"`, 0},
		{"byinspect -watch", []string{"watch", "-addr", proxy, "-every", "10ms"}, "[sample 1 +10ms]", 200 * time.Millisecond},
		{"byinspect -decisions", []string{"decisions", "-addr", proxy, "-action", "load", "-top", "5"}, "decision ledger:", 0},
		{"byinspect -tail", []string{"tail", "-addr", proxy, "-outcome", "slow"}, "flight recorder at byproxyd", 0},
		{"byinspect -federation", []string{"federation", "-addrs", strings.Join(addrs, ",")}, "federation scrape: 4 daemons", 0},
		{"byinspect -exemplars", []string{"exemplars", "-logs", proxyLog + "," + nodeLog}, "merged traces", 0},
		{"bysynth", []string{"synth", "-addr", proxy, "-slots", "constant:20x1s", "-arrival", "uniform", "-quiet"}, "20 completed", 0},
		{"bysynth -list", []string{"synth", "-h"}, "canned scenario: diurnal, multi-tenant-skew, rampx4, steady", 0},
	} {
		ctx := context.Background()
		if row.stop > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, row.stop)
			defer cancel()
		}
		var out bytes.Buffer
		err := run(env{ctx, strings.NewReader(""), &out, &out}, row.argv)
		if err != nil || !strings.Contains(out.String(), row.want) {
			t.Errorf("%s is by %q: error %v, want output with %q:\n%s", row.was, row.argv, err, row.want, out.String())
		}
	}
	if _, err := os.Stat(tr); err != nil {
		t.Errorf("by trace -out wrote no trace: %v", err)
	}
}
