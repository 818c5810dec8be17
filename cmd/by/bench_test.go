package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func TestRunSingleExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "fig6.txt")
	if _, err := by("bench", "-exp", "fig6", "-scale", "100", "-out", out, "-q"); err != nil {
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
	if _, err := by("bench", "-exp", "tab2", "-scale", "100", "-format", "csv", "-out", out, "-q"); err != nil {
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
	if _, err := by("bench", "-exp", "fig6,fig4", "-scale", "100", "-out", out, "-q"); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if !strings.Contains(string(data), "fig6") || !strings.Contains(string(data), "fig4") {
		t.Fatal("comma list should run both experiments")
	}
}

// TestGoldenOutput pins the evaluation: by bench at -scale 10 prints the
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
			if _, err := by("bench", "-exp", exp, "-scale", "10", "-out", out, "-q"); err != nil {
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
	if _, err := by("bench", "-exp", "fig6", "-scale", "100", "-format", "md", "-out", out, "-q"); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if !strings.Contains(string(data), "### fig6") {
		t.Fatalf("markdown output malformed:\n%s", data)
	}
}
