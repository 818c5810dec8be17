package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json at the root of the checkout,
// which is the working directory under run.sh and its parent under
// go test.
func readBenchmarkFile() (benchmarkFile, error) {
	var bf benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		data, err = os.ReadFile("../BENCHMARK.json")
	}
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(data, &bf)
}

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	return r, json.Unmarshal(data, &r)
}

// wanBound is the bound -compare applies to wan_bytes on a workload.
// BENCHMARK.json has one bound per metric, set by the workload that
// repeats worst; where the benchmark knows the count repeats better, it
// says so here.
func wanBound(s spec, bound float64) float64 {
	switch {
	case !s.Wire:
		return 0 // one caller, deterministic policy: the count is exact
	case s.CachePct <= 0.001:
		return math.Min(bound, 0.01) // nothing worth loading fits, so no cache history
	}
	return bound
}

// compareFiles prints one row per workload and end-to-end metric:
// "worse" when b's median is worse than a's by more than the metric's
// bound, "missing" when either file lacks the metric or has it at 0 (no
// end-to-end metric is ever 0), "unresolved" when either file's own
// repetitions spread wider than the bound, so the bound cannot be told
// from noise, else "ok". failed is true if any row is worse or missing.
func compareFiles(w io.Writer, aPath, bPath string) (failed bool, err error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-14s %-10s %16s %16s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, s := range specs {
		pa, okA := a.EndToEnd[s.Name]
		pb, okB := b.EndToEnd[s.Name]
		if !okA || !okB {
			if okA != okB { // a -workload run has only some
				fmt.Fprintf(w, "%-14s in one file only, not compared\n", s.Name)
			}
			continue
		}
		for _, m := range bf.EndToEnd {
			bound := m.Bound
			if m.Name == "wan_bytes" {
				bound = wanBound(s, bound)
			}
			sa, sb := pa.Metrics[m.Name], pb.Metrics[m.Name]
			// change > 0 means b is worse, as a share of a.
			change := (sb.Value - sa.Value) / sa.Value
			if m.Better == "higher" {
				change = -change
			}
			verdict := "ok"
			switch {
			case sa.Value == 0 || sb.Value == 0:
				verdict, change = "missing", math.NaN()
				failed = true
			case change > bound:
				verdict = "worse"
				failed = true
			case spread(sa) > bound || spread(sb) > bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-10s %16.4f %16.4f %+8.2f%% %6.1f%%  %s\n",
				s.Name, m.Name, sa.Value, sb.Value, 100*change, 100*bound, verdict)
		}
	}
	return failed, nil
}

// spread is the range of a run's repetitions as a share of their median.
func spread(s stat) float64 {
	return (s.Max - s.Min) / s.Value
}
