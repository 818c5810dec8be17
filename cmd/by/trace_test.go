package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bypassyield/internal/federation"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

func TestRunWritesValidTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "edr.jsonl")
	if _, err := by("trace", "-release", "edr", "-granularity", "columns", "-scale", "300", "-out", out); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("empty trace")
	}
	if err := trace.Validate(recs); err != nil {
		t.Fatal(err)
	}
}

func TestRunPreprocessed(t *testing.T) {
	out := filepath.Join(t.TempDir(), "edr.jsonl")
	if _, err := by("trace", "-release", "edr", "-granularity", "tables", "-scale", "300", "-seed", "7", "-out", out, "-preprocess"); err != nil {
		t.Fatal(err)
	}
	recs, err := trace.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Class == trace.ClassLog {
			t.Fatal("log queries should have been removed")
		}
	}
}

func TestRunOnGeneratedTrace(t *testing.T) {
	p := workload.ScaledProfile(workload.EDRProfile(), 300)
	recs, err := workload.Generate(p, federation.Columns)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.jsonl.gz")
	if err := trace.WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	out, err := by("analyze", "-trace", path, "-top", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "yield distribution:") || !strings.Contains(out, "top 5 objects by yield volume") {
		t.Fatalf("analysis lacks the distribution or the ranking:\n%s", out)
	}
}

// TestAnalyzeEmptyTrace: a trace with no queries, or none left after
// preprocessing, is reported as such, with no distribution to draw.
func TestAnalyzeEmptyTrace(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	logs := filepath.Join(dir, "logs.jsonl")
	if err := trace.WriteFile(logs, []trace.Record{
		{Seq: 1, SQL: "select * from weblog", Class: trace.ClassLog, Yield: 10},
		{Seq: 2, SQL: "select * from sqllog", Class: trace.ClassLog, Yield: 20},
	}); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		empty: "trace: 0 queries (0 after preprocessing), sequence cost 0.000 GB\n",
		logs:  "trace: 2 queries (0 after preprocessing), sequence cost 0.000 GB\n",
	} {
		out, err := by("analyze", "-trace", path)
		if err != nil || out != want {
			t.Errorf("by analyze -trace %s: error %v, output %q, want %q", filepath.Base(path), err, out, want)
		}
	}
}
