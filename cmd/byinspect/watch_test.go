package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestRunWatch(t *testing.T) {
	addr := liveProxy(t)
	var buf bytes.Buffer
	// Two 20ms rounds: the Metrics scrapes themselves move the proxy's
	// wire counters, so each sample shows deltas.
	if err := runWatch(&buf, addr, 20*time.Millisecond, 2); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"watching byproxyd",
		"[sample 1 +20ms]",
		"[sample 2 +40ms]",
		"wire.frames_rx{metrics}",
		"windowed rates:",
		"core.query_rate",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("watch output missing %q:\n%s", want, out)
		}
	}
}

func TestRunWatchErrors(t *testing.T) {
	if err := runWatch(&bytes.Buffer{}, "127.0.0.1:1", time.Millisecond, 1); err == nil {
		t.Fatal("dial failure should error")
	}
}
