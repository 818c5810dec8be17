package synth

import (
	"fmt"
	"sort"

	"bypassyield/internal/workload"
)

// Canned returns a named built-in scenario, or an error naming the
// choices. The canned set is the load shapes `by synth -scenario`
// drives against a live proxy; a performance change is measured by the
// federation benchmark's workloads under bench/, not by these:
//
//   - steady: one constant-rate slot; the baseline latency histogram.
//   - rampx4: a warm plateau, then a linear ramp to 4× — where the
//     open-loop harness shows achieved < target and the shed counter
//     accounts for the gap.
//   - diurnal: a sine day-cycle, the ESnet studies' dominant pattern.
//   - multi-tenant-skew: three tenants, 8/3/1 weights; the heavy one
//     hammers a Zipf-skewed hot set with Pareto-tailed sizes, the way
//     a handful of pipelines dominate a science archive's traffic.
func Canned(name string) (*Scenario, error) {
	switch name {
	case "steady":
		return &Scenario{
			Name: "steady",
			Seed: 1,
			Slots: []Slot{
				{Name: "steady", Shape: ShapeConstant, RPS: 100, Duration: seconds(10)},
			},
		}, nil
	case "rampx4":
		return &Scenario{
			Name: "rampx4",
			Seed: 2,
			Slots: []Slot{
				{Name: "warm", Shape: ShapeConstant, RPS: 60, Duration: seconds(5)},
				{Name: "ramp", Shape: ShapeRamp, RPS: 60, ToRPS: 240, Duration: seconds(15)},
			},
		}, nil
	case "diurnal":
		return &Scenario{
			Name: "diurnal",
			Seed: 3,
			Slots: []Slot{
				{Name: "day", Shape: ShapeSine, RPS: 80, Amp: 60, Period: seconds(20), Duration: seconds(40)},
			},
		}, nil
	case "multi-tenant-skew":
		return &Scenario{
			Name: "multi-tenant-skew",
			Seed: 4,
			Slots: []Slot{
				{Name: "mixed", Shape: ShapeConstant, RPS: 120, Duration: seconds(15)},
			},
			Tenants: []Tenant{
				{
					Name: "pipeline", Weight: 8, ZipfS: 1.4,
					Mix:  &workload.Mix{Range: 0.5, Identity: 0.2, Bulk: 0.3},
					Size: &workload.SizeShape{Dist: "pareto", Alpha: 1.2, Min: 0.3},
				},
				{
					Name: "portal", Weight: 3, ZipfS: 1.1,
					Mix: &workload.Mix{Spatial: 0.5, Identity: 0.3, Aggregate: 0.2},
				},
				{Name: "adhoc", Weight: 1},
			},
		}, nil
	default:
		return nil, fmt.Errorf("synth: unknown canned scenario %q (have %v)", name, CannedNames())
	}
}

// CannedNames lists the built-in scenarios.
func CannedNames() []string {
	names := []string{"steady", "rampx4", "diurnal", "multi-tenant-skew"}
	sort.Strings(names)
	return names
}

func seconds(n float64) Duration { return Duration(n * 1e9) }
