package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestRunSingleExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fig6.txt")
	if err := run("fig6", 100, 0.4, "text", out, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fig6") {
		t.Fatalf("output missing experiment header:\n%s", data)
	}
}

func TestRunCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tab2.csv")
	if err := run("tab2", 100, 0.4, "csv", out, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "data-set,") {
		t.Fatalf("csv output malformed:\n%s", data)
	}
}

func TestRunCommaList(t *testing.T) {
	out := filepath.Join(t.TempDir(), "both.txt")
	if err := run("fig6,fig4", 100, 0.4, "text", out, true); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if !strings.Contains(string(data), "fig6") || !strings.Contains(string(data), "fig4") {
		t.Fatal("comma list should run both experiments")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("nope", 100, 0.4, "text", "", true); err == nil {
		t.Fatal("unknown experiment should error")
	}
	if err := run("fig6", 100, 0.4, "yaml", "", true); err == nil {
		t.Fatal("unknown format should error")
	}
	// A cache outside (0, 1] is refused, not replaced by the default,
	// and before the output file is made.
	for _, pct := range []float64{40, 1.01, 0, -1, math.NaN()} {
		out := filepath.Join(t.TempDir(), "fig7.txt")
		err := run("fig7", 100, pct, "text", out, true)
		if err == nil || !strings.Contains(err.Error(), "(0, 1]") {
			t.Errorf("-cache %g: error %v, want one naming the range (0, 1]", pct, err)
		}
		if _, statErr := os.Stat(out); statErr == nil {
			t.Errorf("-cache %g: the output file was made", pct)
		}
	}
}

// TestGoldenOutput pins the evaluation: bybench at -scale 10 prints the
// paper's experiments (-exp all) and the extensions (-exp extensions)
// byte for byte as testdata/ holds them. A change that moves a figure
// regenerates both (go test -run TestGoldenOutput -update), and the
// full-scale results/ with them (make experiments), and says so.
func TestGoldenOutput(t *testing.T) {
	if raceEnabled {
		t.Skip("the experiments run on one goroutine, so the race detector has nothing to find, and it takes the two runs from some 2.5 s to 15 s")
	}
	for _, exp := range []string{"all", "extensions"} {
		t.Run(exp, func(t *testing.T) {
			golden := filepath.Join("testdata", exp+"-scale10.txt")
			out := filepath.Join(t.TempDir(), exp+".txt")
			if err := run(exp, 10, 0.4, "text", out, true); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gotLines), len(wantLines)) {
					if gotLines[i] != wantLines[i] {
						t.Fatalf("-exp %s -scale 10 differs from %s at line %d:\n got %q\nwant %q", exp, golden, i+1, gotLines[i], wantLines[i])
					}
				}
				t.Fatalf("-exp %s -scale 10 has %d lines, %s %d", exp, len(gotLines), golden, len(wantLines))
			}
		})
	}
}

func TestRunMarkdown(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fig6.md")
	if err := run("fig6", 100, 0.4, "md", out, true); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if !strings.Contains(string(data), "### fig6") {
		t.Fatalf("markdown output malformed:\n%s", data)
	}
}
