package synth

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bypassyield/internal/trace"
)

// TestParseScenarioGolden parses the checked-in spec and pins every
// field the grammar can express.
func TestParseScenarioGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "scenario.json"))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "nightly-mix" || sc.Release != "dr1" || sc.Seed != 42 || sc.Arrival != ArrivalUniform {
		t.Fatalf("header = %q/%q/%d/%q", sc.Name, sc.Release, sc.Seed, sc.Arrival)
	}
	if len(sc.Slots) != 3 {
		t.Fatalf("slots = %d, want 3", len(sc.Slots))
	}
	warm, surge, night := sc.Slots[0], sc.Slots[1], sc.Slots[2]
	if warm.Shape != ShapeConstant || warm.RPS != 40 || warm.Duration.D() != 5*time.Second {
		t.Fatalf("warm = %+v", warm)
	}
	if surge.Shape != ShapeRamp || surge.RPS != 40 || surge.ToRPS != 160 || surge.Duration.D() != 20*time.Second {
		t.Fatalf("surge = %+v", surge)
	}
	if night.Shape != ShapeSine || night.Amp != 50 || night.Period.D() != 30*time.Second ||
		night.Start.D() != 30*time.Second || night.Duration.D() != time.Minute {
		t.Fatalf("night = %+v", night)
	}
	if len(sc.Tenants) != 2 {
		t.Fatalf("tenants = %d, want 2", len(sc.Tenants))
	}
	p := sc.Tenants[0]
	if p.Name != "pipeline" || p.Weight != 6 || p.ZipfS != 1.3 {
		t.Fatalf("pipeline = %+v", p)
	}
	if p.Mix == nil || p.Mix.Range != 0.5 || p.Mix.Bulk != 0.5 {
		t.Fatalf("pipeline mix = %+v", p.Mix)
	}
	if p.Size == nil || p.Size.Dist != "pareto" || p.Size.Alpha != 1.2 || p.Size.Min != 0.3 {
		t.Fatalf("pipeline size = %+v", p.Size)
	}
	if sc.Tenants[1].Seed != 77 {
		t.Fatalf("adhoc seed = %d, want 77", sc.Tenants[1].Seed)
	}

	// The explicit-start slot pins its window: warm [0,5s), surge
	// [5s,25s), night [30s,90s) — a 5s gap, no overlap.
	starts, ends := sc.Windows()
	if starts[2] != 30*time.Second || ends[2] != 90*time.Second {
		t.Fatalf("night window = [%v, %v)", starts[2], ends[2])
	}
	if got := sc.TotalDuration(); got != 90*time.Second {
		t.Fatalf("total duration = %v, want 90s", got)
	}
}

// TestScenarioJSONRoundTrip: every canned scenario survives a
// marshal/parse cycle intact — the JSON grammar covers the whole
// model.
func TestScenarioJSONRoundTrip(t *testing.T) {
	for _, name := range CannedNames() {
		sc, err := Canned(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.fill()
		data, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseScenario(data)
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", name, err, data)
		}
		if len(back.Slots) != len(sc.Slots) || len(back.Tenants) != len(sc.Tenants) {
			t.Fatalf("%s: round trip lost structure: %+v vs %+v", name, back, sc)
		}
		for i := range sc.Slots {
			if back.Slots[i] != sc.Slots[i] {
				t.Fatalf("%s: slot %d round-tripped to %+v, want %+v", name, i, back.Slots[i], sc.Slots[i])
			}
		}
	}
}

// TestParseScenarioRejects pins the validation error surface.
func TestParseScenarioRejects(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want string
	}{
		{"no slots", `{"name":"x","slots":[]}`, "no slots"},
		{"negative rps", `{"slots":[{"shape":"constant","rps":-5,"duration":"1s"}]}`, "must be ≥ 0"},
		{"zero duration", `{"slots":[{"shape":"constant","rps":5,"duration":"0s"}]}`, "must be positive"},
		{"negative duration", `{"slots":[{"shape":"constant","rps":5,"duration":"-3s"}]}`, "must be positive"},
		{"unknown shape", `{"slots":[{"shape":"square","rps":5,"duration":"1s"}]}`, "unknown shape"},
		{"negative ramp target", `{"slots":[{"shape":"ramp","rps":5,"to_rps":-1,"duration":"1s"}]}`, "to_rps"},
		{"sine amp exceeds midline", `{"slots":[{"shape":"sine","rps":10,"amp":20,"duration":"1s"}]}`, "exceeds midline"},
		{"overlapping windows", `{"slots":[
			{"shape":"constant","rps":5,"duration":"10s"},
			{"shape":"constant","rps":5,"start":"4s","duration":"2s"}]}`, "overlaps"},
		{"bad arrival", `{"arrival":"bursty","slots":[{"shape":"constant","rps":5,"duration":"1s"}]}`, "arrival"},
		{"bad release", `{"release":"dr9","slots":[{"shape":"constant","rps":5,"duration":"1s"}]}`, "release"},
		{"unknown field", `{"slotz":[]}`, "unknown field"},
		{"bad duration string", `{"slots":[{"shape":"constant","rps":5,"duration":"fast"}]}`, "duration"},
		{"negative tenant weight", `{"slots":[{"shape":"constant","rps":5,"duration":"1s"}],
			"tenants":[{"name":"a","weight":-1}]}`, "weight"},
		{"zero total weight", `{"slots":[{"shape":"constant","rps":5,"duration":"1s"}],
			"tenants":[{"name":"a","weight":0}]}`, "weights sum"},
		{"negative zipf", `{"slots":[{"shape":"constant","rps":5,"duration":"1s"}],
			"tenants":[{"name":"a","weight":1,"zipf_s":-1}]}`, "zipf_s"},
		{"bad size dist", `{"slots":[{"shape":"constant","rps":5,"duration":"1s"}],
			"tenants":[{"name":"a","weight":1,"size":{"dist":"weibull"}}]}`, "size distribution"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseScenario([]byte(tc.spec))
			if err == nil {
				t.Fatalf("spec accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %q, want it to contain %q", err, tc.want)
			}
		})
	}
}

// TestParseSlotsGrammar covers the compact flag grammar.
func TestParseSlotsGrammar(t *testing.T) {
	slots, err := ParseSlots("constant:100x30s, ramp:50..200x1m, sine:80~60x2m/30s")
	if err != nil {
		t.Fatal(err)
	}
	if len(slots) != 3 {
		t.Fatalf("slots = %d, want 3", len(slots))
	}
	if s := slots[0]; s.Shape != ShapeConstant || s.RPS != 100 || s.Duration.D() != 30*time.Second {
		t.Fatalf("constant = %+v", s)
	}
	if s := slots[1]; s.Shape != ShapeRamp || s.RPS != 50 || s.ToRPS != 200 || s.Duration.D() != time.Minute {
		t.Fatalf("ramp = %+v", s)
	}
	if s := slots[2]; s.Shape != ShapeSine || s.RPS != 80 || s.Amp != 60 ||
		s.Duration.D() != 2*time.Minute || s.Period.D() != 30*time.Second {
		t.Fatalf("sine = %+v", s)
	}
	// Sine without a period leaves it to default at schedule time.
	slots, err = ParseSlots("sine:80~60x2m")
	if err != nil {
		t.Fatal(err)
	}
	if slots[0].Period != 0 {
		t.Fatalf("period = %v, want 0 (defaulted later)", slots[0].Period.D())
	}

	for _, bad := range []string{
		"", "constant", "constant:x10s", "constant:10", "ramp:5x10s",
		"sine:80x10s", "square:5x10s", "constant:5xfast", "sine:80~60x2m/slow",
	} {
		if _, err := ParseSlots(bad); err == nil {
			t.Errorf("ParseSlots(%q) accepted, want error", bad)
		}
	}
}

// TestScheduleDeterminism: the acceptance-criteria determinism proof —
// same seed ⇒ identical arrival schedule and statements; different
// seed ⇒ different.
func TestScheduleDeterminism(t *testing.T) {
	mk := func(seed int64) ([]Arrival, []trace.Record) {
		sc, err := Canned("multi-tenant-skew")
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = seed
		arr, err := Schedule(sc)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := Ops(sc, arr)
		if err != nil {
			t.Fatal(err)
		}
		return arr, ops
	}
	a1, o1 := mk(11)
	a2, o2 := mk(11)
	b, _ := mk(12)
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs under one seed: %+v vs %+v", i, a1[i], a2[i])
		}
		if !reflect.DeepEqual(o1[i], o2[i]) {
			t.Fatalf("op %d differs under one seed", i)
		}
	}
	if len(a1) == len(b) {
		same := true
		for i := range a1 {
			if a1[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical schedules")
		}
	}
}

// TestScheduleShapes: arrival counts track the rate integral, arrivals
// stay inside their slot windows and nondecreasing.
func TestScheduleShapes(t *testing.T) {
	sc := &Scenario{
		Name: "shapes",
		Seed: 5,
		Slots: []Slot{
			{Name: "c", Shape: ShapeConstant, RPS: 100, Duration: seconds(10)},
			{Name: "r", Shape: ShapeRamp, RPS: 50, ToRPS: 150, Duration: seconds(10)},
			{Name: "s", Shape: ShapeSine, RPS: 80, Amp: 40, Duration: seconds(10)},
		},
	}
	arr, err := Schedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	want := sc.ExpectedOps() // 1000 + 1000 + 800
	if got := float64(len(arr)); got < want*0.85 || got > want*1.15 {
		t.Fatalf("poisson arrivals = %v, want within 15%% of %v", got, want)
	}
	starts, ends := sc.Windows()
	perSlot := map[int]int{}
	var prev time.Duration
	for i, a := range arr {
		if a.At < prev {
			t.Fatalf("arrival %d goes backwards: %v after %v", i, a.At, prev)
		}
		prev = a.At
		if a.At < starts[a.Slot] || a.At >= ends[a.Slot] {
			t.Fatalf("arrival %d at %v outside slot %d window [%v, %v)", i, a.At, a.Slot, starts[a.Slot], ends[a.Slot])
		}
		perSlot[a.Slot]++
	}
	for s, want := range map[int]float64{0: 1000, 1: 1000, 2: 800} {
		if got := float64(perSlot[s]); got < want*0.8 || got > want*1.2 {
			t.Fatalf("slot %d arrivals = %v, want ≈ %v", s, got, want)
		}
	}

	// Uniform pacing is exact for a constant slot: 10s at 100 rps is
	// 1000 arrivals, exactly 10ms apart.
	u := &Scenario{Name: "u", Arrival: ArrivalUniform, Seed: 1,
		Slots: []Slot{{Shape: ShapeConstant, RPS: 100, Duration: seconds(10)}}}
	ua, err := Schedule(u)
	if err != nil {
		t.Fatal(err)
	}
	if len(ua) != 1000 {
		t.Fatalf("uniform arrivals = %d, want exactly 1000", len(ua))
	}
	if gap := ua[1].At - ua[0].At; gap != 10*time.Millisecond {
		t.Fatalf("uniform gap = %v, want 10ms", gap)
	}
}

// TestTenantWeighting: tenant draw frequencies track their weights.
func TestTenantWeighting(t *testing.T) {
	sc := &Scenario{
		Name:  "tenants",
		Seed:  9,
		Slots: []Slot{{Shape: ShapeConstant, RPS: 200, Duration: seconds(10)}},
		Tenants: []Tenant{
			{Name: "heavy", Weight: 8},
			{Name: "mid", Weight: 3},
			{Name: "light", Weight: 1},
		},
	}
	arr, err := Schedule(sc)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, a := range arr {
		counts[a.Tenant]++
	}
	total := float64(len(arr))
	for i, wantFrac := range []float64{8.0 / 12, 3.0 / 12, 1.0 / 12} {
		got := float64(counts[i]) / total
		if got < wantFrac*0.7 || got > wantFrac*1.3 {
			t.Fatalf("tenant %d frequency = %.3f, want ≈ %.3f", i, got, wantFrac)
		}
	}
}

// TestScale compresses time and rate together.
func TestScale(t *testing.T) {
	sc, err := Canned("rampx4")
	if err != nil {
		t.Fatal(err)
	}
	base := sc.TotalDuration()
	baseOps := sc.ExpectedOps()
	sc.Scale(4, 0.5)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := sc.TotalDuration(); got != base/4 {
		t.Fatalf("scaled duration = %v, want %v", got, base/4)
	}
	if got := sc.ExpectedOps(); got < baseOps/8*0.99 || got > baseOps/8*1.01 {
		t.Fatalf("scaled ops = %v, want ≈ %v", got, baseOps/8)
	}
}

// TestCannedValidate: every canned scenario passes its own validation
// and produces a nonempty deterministic schedule.
func TestCannedValidate(t *testing.T) {
	for _, name := range CannedNames() {
		sc, err := Canned(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arr, err := Schedule(sc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(arr) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
	}
	if _, err := Canned("nope"); err == nil {
		t.Fatal("unknown canned scenario accepted")
	}
}
