// Command bench is the federation benchmark: it builds byproxyd's
// proxy and bydbd's nodes inside its own process on loopback TCP,
// drives them closed loop, checks the answers, and prints every metric
// by name with its unit. See README.md.
//
// The driver's form, one workload and one pass per run:
//
//	bash bench/run.sh --workload edr-cached --seed 12 --seconds 10 --trace 0
//
// Every workload, both passes, results and spans on disk:
//
//	bash bench/run.sh -seed 12 -out bench/results/latest.json
//
// Two result files against the bounds of BENCHMARK.json:
//
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// exitGrace is how long a cancelled run may take to unwind before the
// watchdog removes the scratch directory and exits the process, which
// takes every listener and goroutine with it.
const exitGrace = 8 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int // 0 end-to-end pass, 1 traced pass, -1 both
	reps     int
	quick    bool
	out      string
	scratch  string
	deadline time.Duration
}

func main() {
	var o options
	var compare string
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Int64Var(&o.seed, "seed", 12, "workload seed: orders the statements; the same seed gives the same input")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal run length: a repetition times 1000 statements for each, however long they take")
	flag.IntVar(&o.trace, "trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass; -1: both")
	flag.IntVar(&o.reps, "reps", 0, "repetitions per workload (default 3, with -quick 1)")
	flag.BoolVar(&o.quick, "quick", false, "300 timed statements and one repetition: a smoke test, not a measurement")
	flag.StringVar(&o.out, "out", "", "write results to this JSON file and the spans to trace.json beside it")
	flag.StringVar(&o.scratch, "scratch", os.TempDir(), "directory for state directories; each run makes and removes its own inside")
	flag.DurationVar(&o.deadline, "deadline", 0, "abort with a non-zero exit after this long (default 160s per selected workload)")
	flag.StringVar(&compare, "compare", "", "compare this result file with the one named after it, by the bounds in BENCHMARK.json")
	flag.Parse()

	if compare != "" {
		if flag.NArg() != 1 {
			fatal(errors.New("usage: -compare a.json b.json"))
		}
		worse, err := compareFiles(os.Stdout, compare, flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	ok, err := run(os.Stdout, o)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// results is the -out file.
type results struct {
	Seed      int64                 `json:"seed"`
	Host      string                `json:"host"`
	EndToEnd  map[string]passResult `json:"end_to_end"`
	PerLayer  map[string]passResult `json:"per_layer"`
	LeakCheck string                `json:"leak_check"`
}

// run executes the selected workloads and passes, printing to w. ok is
// false when a self-check failed; the metrics are printed either way.
func run(w io.Writer, o options) (ok bool, err error) {
	selected := specs
	if o.workload != "" {
		s, found := specByName(o.workload)
		if !found {
			return false, fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []spec{s}
	}
	sz := fullSizes
	sz.timed = o.seconds * timedPerSecond
	if o.reps == 0 {
		o.reps = fullReps
	}
	if o.quick {
		sz = quickSizes
		o.reps = 1
	}
	if sz.timed < 1 || o.reps < 1 {
		return false, errors.New("-seconds and -reps must be at least 1")
	}
	if o.deadline == 0 {
		o.deadline = 160 * time.Second * time.Duration(len(selected))
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(o.scratch, "bench-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	// SIGINT, SIGTERM and the deadline all cancel ctx: the callers stop
	// at their next statement and the deferred closes run. Should that
	// hang, the watchdog ends the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, o.deadline)
	defer cancel()
	finished := make(chan struct{})
	defer close(finished)
	go func() {
		select {
		case <-finished:
		case <-ctx.Done():
			select {
			case <-finished:
			case <-time.After(exitGrace):
				os.RemoveAll(scratch)
				fmt.Fprintln(os.Stderr, "bench: aborted:", context.Cause(ctx))
				os.Exit(3)
			}
		}
	}()

	fmt.Fprintf(w, "federation benchmark: seed %d, release edr, engine sample 1/%d seed %d, policy %s; one process, loopback TCP, no injected latency, closed loop, GOMAXPROCS %d\n",
		o.seed, dataSample, dataSeed, policyName, runtime.GOMAXPROCS(0))
	fmt.Fprintln(w, "end-to-end timings are at the reference task's nominal speed: the clock's reading divided by the host factor of the same repetition (ref.go); raw is the clock's reading")
	baseline := runtime.NumGoroutine()
	res := results{Seed: o.seed, Host: fmt.Sprintf("%s/%s %s GOMAXPROCS=%d", runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.GOMAXPROCS(0)),
		EndToEnd: map[string]passResult{}, PerLayer: map[string]passResult{}}
	spans := map[string][]span{}
	ok = true
	var last passResult
	for _, s := range selected {
		if o.trace != 1 {
			pr, err := runEndToEnd(ctx, s, o.seed, sz, o.reps, scratch)
			if err != nil {
				return false, fmt.Errorf("workload %s: %w", s.Name, err)
			}
			printPass(w, &pr, endToEndMetrics)
			res.EndToEnd[s.Name], last = pr, pr
			ok = ok && len(pr.Checks) == 0
		}
		if o.trace != 0 {
			pr, sp, err := runTraced(ctx, s, o.seed, sz, scratch)
			if err != nil {
				return false, fmt.Errorf("workload %s, traced pass: %w", s.Name, err)
			}
			printPass(w, &pr, perLayerMetrics)
			res.PerLayer[s.Name], last = pr, pr
			spans[s.Name] = sp
			ok = ok && len(pr.Checks) == 0
		}
	}

	// Nothing may outlive the workloads: fed.Close has already checked
	// that every listener is gone; goroutines get a moment to unwind.
	res.LeakCheck = "ok"
	for wait := time.Now(); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Since(wait) > 2*time.Second {
			res.LeakCheck = fmt.Sprintf("%d goroutines at exit, %d before the first workload", runtime.NumGoroutine(), baseline)
			ok = false
			break
		}
	}
	fmt.Fprintf(w, "leak check: %s\n", res.LeakCheck)

	if o.out != "" {
		if err := writeJSON(o.out, res, " "); err != nil {
			return false, err
		}
		if len(spans) > 0 {
			if err := writeJSON(filepath.Join(filepath.Dir(o.out), "trace.json"), spans, ""); err != nil {
				return false, err
			}
		}
	}
	// The driver reads the last line: the last pass run.
	line := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]driverStat `json:"metrics"`
	}{ok, last.Attempted, last.Failed, map[string]driverStat{}}
	for name, st := range last.Metrics {
		line.Metrics[name] = driverStat{st.Value, st.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(b))
	return ok, nil
}

type driverStat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printPass prints every metric of a pass by name with its unit, after
// adding a failed check for any that is not a finite number.
func printPass(w io.Writer, pr *passResult, defs []metricDef) {
	fmt.Fprintf(w, "\nworkload %s: digest %s, %d statements, %d callers, %d decision shards, %d repetitions, %d latency samples each, attempted %d, failed %d\n",
		pr.Workload, pr.Digest, pr.Statements, pr.Callers, pr.Shards, pr.Reps, pr.Samples, pr.Attempted, pr.Failed)
	for _, m := range defs {
		st, found := pr.Metrics[m.Name]
		if !found || math.IsNaN(st.Value) || math.IsInf(st.Value, 0) {
			pr.Checks = append(pr.Checks, "metric "+m.Name+" is missing or not finite")
			delete(pr.Metrics, m.Name) // JSON has no NaN
			continue
		}
		fmt.Fprintf(w, "  %-36s %16.4f %-6s", m.Name, st.Value, st.Unit)
		if pr.Reps > 1 {
			fmt.Fprintf(w, " min %.4f max %.4f", st.Min, st.Max)
		}
		if raw, timed := pr.Raw[m.Name]; timed {
			fmt.Fprintf(w, " raw %.4f", raw.Value)
		}
		fmt.Fprintln(w)
	}
	if h := pr.HostFactor; h != nil {
		fmt.Fprintf(w, "  %-36s %16.4f %-6s min %.4f max %.4f; reference", "host factor", h.Value, h.Unit, h.Min, h.Max)
		for part, name := range refPartNames {
			fmt.Fprintf(w, " %s %.2f/%.2f ms", name, pr.Reference[part].Value, refNominalMS[part])
		}
		fmt.Fprintln(w)
	}
	for _, c := range pr.Checks {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", c)
	}
}

func writeJSON(path string, v any, indent string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if indent != "" {
		b, err = json.MarshalIndent(v, "", indent)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
