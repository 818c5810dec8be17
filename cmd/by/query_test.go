package main

import (
	"strings"
	"testing"
)

func TestRunOneShotAndStats(t *testing.T) {
	addr := liveProxy(t)
	out, err := by("query", "-addr", addr, "select", "ra", "from", "photoobj", "where", "ra", "between", "0", "and", "350")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ra\n") || !strings.Contains(out, " edr/photoobj.ra ") {
		t.Fatalf("the statement's rows or decisions are missing:\n%s", out)
	}
	if out, err = by("query", "-addr", addr, "-rows=false", "select ra from photoobj where ra between 0 and 350"); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "ra\n") {
		t.Fatalf("-rows=false printed the rows:\n%s", out)
	}
	if out, err = by("stats", "-addr", addr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "queries:       5 (") {
		t.Fatalf("the accounting does not count the two statements after the three before:\n%s", out)
	}
}

func TestRunBadSQL(t *testing.T) {
	addr := liveProxy(t)
	if _, err := by("query", "-addr", addr, "not", "sql"); err == nil {
		t.Fatal("bad SQL should error")
	}
}

func TestRunDialError(t *testing.T) {
	if _, err := by("query", "-addr", "127.0.0.1:1", "select 1"); err == nil {
		t.Fatal("dial failure should error")
	}
}
