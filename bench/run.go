package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/sqlparse"
)

// oracleEvery is the sampling stride of the result check: one
// statement in fifty is re-executed directly on the engine.
const oracleEvery = 50

// callers is the sizing rule: min(nproc, 4) closed-loop callers, one
// connection each.
func callers() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	return n
}

// answer is what a caller keeps of one reply.
type answer struct {
	rows, bytes int64
	partial     bool
	err         error
	// decisions are "object yield decision" in access order, kept only
	// for the traced pass.
	decisions []string
}

// queryFn sends statement i for caller c and waits for its reply.
type queryFn func(c, i int) answer

// connect returns the workload's way of sending a statement for n
// callers — through the wire on a connection each, or straight into the
// mediator with the statements parsed beforehand — and what to call
// when done.
func connect(f *fed, s spec, sqls []string, n int, keepDecisions bool) (queryFn, func(), error) {
	if s.Wire {
		clients, err := f.dial(n)
		if err != nil {
			return nil, nil, err
		}
		return func(c, i int) answer {
			res, err := clients[c].Query(sqls[i])
			if err != nil {
				return answer{err: err}
			}
			a := answer{rows: res.Rows, bytes: res.Bytes, partial: res.Partial}
			if keepDecisions {
				for _, d := range res.Decisions {
					a.decisions = append(a.decisions, decisionKey(d.Object, d.Yield, d.Decision))
				}
			}
			return a
		}, func() { closeClients(clients) }, nil
	}
	stmts := make([]*sqlparse.SelectStmt, len(sqls))
	for i, q := range sqls {
		var err error
		if stmts[i], err = sqlparse.Parse(q); err != nil {
			return nil, nil, err
		}
	}
	return func(_, i int) answer {
		rep, err := f.med.QueryStmt(sqls[i], stmts[i])
		if err != nil {
			return answer{err: err}
		}
		a := answer{rows: rep.Result.Rows, bytes: rep.Result.Bytes, partial: rep.Degraded}
		if keepDecisions {
			a.decisions = decisionKeys(rep)
		}
		return a
	}, func() {}, nil
}

func decisionKey(object string, yield int64, decision string) string {
	return object + " " + strconv.FormatInt(yield, 10) + " " + decision
}

func decisionKeys(rep *federation.QueryReport) []string {
	out := make([]string, len(rep.Decisions))
	for i, d := range rep.Decisions {
		out[i] = decisionKey(string(d.Object), d.Yield, d.Decision.String())
	}
	return out
}

// identityCheck is the paper's conservation law seen from the callers:
// the bytes they were sent are D_A, and D_A = D_S + D_C. It returns
// what is broken, or "".
func identityCheck(delivered int64, a core.Accounting) string {
	if delivered == a.YieldBytes && a.YieldBytes == a.DeliveredBytes() {
		return ""
	}
	return fmt.Sprintf("accounting identity broken: sum of result bytes %d, D_A %d, D_S+D_C %d", delivered, a.YieldBytes, a.DeliveredBytes())
}

// drive sends statements [lo, hi) closed loop from n callers sharing
// one cursor, and returns the wall time. Latencies, when wanted, land
// per caller so the callers share nothing but the cursor.
func drive(ctx context.Context, n, lo, hi int, q queryFn, answers []answer, lat [][]time.Duration) time.Duration {
	var cursor atomic.Int64
	cursor.Store(int64(lo))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= hi {
					return
				}
				t0 := time.Now()
				answers[i] = q(c, i)
				if lat != nil {
					lat[c] = append(lat[c], time.Since(t0))
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// timings are the four metrics that move with the host's speed.
type timings struct {
	QPS    float64
	P50ms  float64
	P99ms  float64
	SetupS float64
}

// atReference returns t as it would read were the host at the
// reference's nominal speed: the host took factor times as long.
func (t timings) atReference(factor float64) timings {
	return timings{QPS: t.QPS * factor, P50ms: t.P50ms / factor, P99ms: t.P99ms / factor, SetupS: t.SetupS / factor}
}

// rep is one repetition: a fresh federation, warm-up, a timed run.
type rep struct {
	timings          // at the reference's nominal speed: what is reported
	Raw      timings // as the clock read
	Host     float64 // host factor over this repetition, see ref.go
	RefMS    refPass // the reference's components, median pass
	WANBytes int64
	TimedS   float64
	Samples  int
	Digest   string
	Shards   int // resolved decision-shard count
	Acct     core.Accounting
	// Attempted counts warm-up and timed statements; Failed those that
	// errored, came back Partial, or differed from the engine oracle.
	Attempted, Failed int
	// Checks lists the self-checks that did not hold.
	Checks []string
}

// runRep runs one repetition of a workload's end-to-end pass, with
// tracing off.
func runRep(ctx context.Context, s spec, start int, sz sizes, scratch string) (r rep, err error) {
	ref, err := newHostRef()
	if err != nil {
		return r, err
	}
	defer ref.Close()
	// The reference runs before set-up and around every timed segment,
	// so its passes span the repetition.
	passes := make([]refPass, 0, sz.segments+2)
	reference := func() error {
		p, err := ref.pass()
		passes = append(passes, p)
		return err
	}
	if err := reference(); err != nil {
		return r, err
	}
	setupStart := time.Now()
	in, err := generate(s, sz.warm, sz.timed, start)
	if err != nil {
		return r, err
	}
	sqls := in.sqls
	r.Digest = in.digest
	f, err := startFed(s.fedConfig(scratch))
	if err != nil {
		return r, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	n := 1
	if s.Wire {
		n = callers()
	}
	query, done, err := connect(f, s, sqls, n, false)
	if err != nil {
		return r, err
	}
	defer done()

	answers := make([]answer, len(sqls))
	drive(ctx, n, 0, sz.warm, query, answers, nil)
	r.Raw.SetupS = time.Since(setupStart).Seconds()

	lat := make([][]time.Duration, n)
	for c := range lat {
		lat[c] = make([]time.Duration, 0, sz.timed)
	}
	runtime.GC() // start every timed run from a collected heap
	var wall time.Duration
	for k := 0; k < sz.segments; k++ {
		if err := reference(); err != nil {
			return r, err
		}
		lo, hi := sz.warm+k*sz.timed/sz.segments, sz.warm+(k+1)*sz.timed/sz.segments
		wall += drive(ctx, n, lo, hi, query, answers, lat)
	}
	if err := reference(); err != nil {
		return r, err
	}
	if err := ctx.Err(); err != nil {
		return r, err
	}
	r.TimedS = wall.Seconds()
	r.Raw.QPS = float64(sz.timed) / r.TimedS

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	r.Samples = len(all)
	r.Raw.P50ms = quantileMS(all, 0.50)
	r.Raw.P99ms = quantileMS(all, 0.99)
	if r.Host, r.RefMS, err = hostFactor(passes); err != nil {
		return r, err
	}
	r.timings = r.Raw.atReference(r.Host)

	// Correctness: every reply, the accounting identity, the oracle.
	r.Attempted = len(sqls)
	var delivered int64
	for i, a := range answers {
		bad := a.err != nil || a.partial
		if !bad && i%oracleEvery == 0 {
			stmt, err := sqlparse.Parse(sqls[i])
			if err != nil {
				return r, err
			}
			want, err := f.db.Execute(stmt)
			if err != nil {
				return r, err
			}
			bad = want.Rows != a.rows || want.Bytes != a.bytes
		}
		if bad {
			r.Failed++
		}
		delivered += a.bytes
	}
	r.Shards = f.med.ShardCount()
	r.Acct = f.med.Accounting()
	r.WANBytes = r.Acct.WANBytes()
	if c := identityCheck(delivered, r.Acct); c != "" {
		r.Checks = append(r.Checks, c)
	}
	if r.Failed > 0 {
		r.Checks = append(r.Checks, fmt.Sprintf("%d of %d statements failed", r.Failed, r.Attempted))
	}
	if s.Durable {
		// The callers have stopped, so the directory is the crash image.
		_, _, failed, err := recoverCopy(f.stateDir, f.cfg, r.Acct)
		if err != nil {
			return r, err
		}
		if failed != "" {
			r.Checks = append(r.Checks, failed)
		}
	}
	return r, nil
}

// quantileMS is the nearest-rank quantile of sorted samples, in ms.
func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return ms(sorted[i])
}

// stat is one metric over the repetitions of a run.
type stat struct {
	Value float64   `json:"value"` // median of the repetitions
	Unit  string    `json:"unit"`
	Min   float64   `json:"min"`
	Max   float64   `json:"max"`
	Reps  []float64 `json:"reps,omitempty"`
}

func newStat(unit string, reps []float64) stat {
	sorted := append([]float64(nil), reps...)
	sort.Float64s(sorted)
	return stat{Value: median(sorted), Unit: unit, Min: sorted[0], Max: sorted[len(sorted)-1], Reps: reps}
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 0 {
		return (sorted[n/2-1] + sorted[n/2]) / 2
	}
	return sorted[n/2]
}

// passResult is the outcome of one pass (end-to-end or traced) of one
// workload.
type passResult struct {
	Workload   string          `json:"workload"`
	Digest     string          `json:"digest"`
	Seed       int64           `json:"seed"`
	Callers    int             `json:"callers"`
	Shards     int             `json:"decision_shards"` // resolved count
	Statements int             `json:"statements"`      // per repetition, warm-up included
	Samples    int             `json:"samples"`         // latency samples per repetition
	Reps       int             `json:"reps"`
	Attempted  int             `json:"attempted"`
	Failed     int             `json:"failed"`
	Checks     []string        `json:"failed_checks"`
	Metrics    map[string]stat `json:"metrics"`
	// HostFactor and Raw belong to the end-to-end pass: how much longer
	// than nominal the reference task took, and the timings as the clock
	// read them, before division by it.
	HostFactor *stat           `json:"host_factor,omitempty"`
	Reference  []stat          `json:"reference_ms,omitempty"` // in refPartNames' order
	Raw        map[string]stat `json:"raw,omitempty"`
}

// runEndToEnd repeats the workload reps times, each on a fresh
// federation, and reports each metric's median over the repetitions.
func runEndToEnd(ctx context.Context, s spec, seed int64, sz sizes, reps int, scratch string) (passResult, error) {
	out := passResult{Workload: s.Name, Seed: seed, Callers: 1, Statements: sz.warm + sz.timed, Reps: reps, Checks: []string{}}
	if s.Wire {
		out.Callers = callers()
	}
	series := map[string][]float64{}
	var wan []int64
	digest := sha256.New()
	// Where a cache is in play, WAN bytes hang on its history: one early
	// load of a hot column changes what later bulk queries hit, and the
	// same statements started elsewhere differ by some 13% (quartile
	// distance). Callers race on the wire, so its repetitions are not
	// identical anyway; each starts at its own place, drawn from the seed,
	// and the median is also one over cache histories. The sequential
	// workload keeps one start, and must then repeat exactly.
	starts := rand.New(rand.NewSource(seed))
	start := starts.Intn(sz.timed)
	for i := 0; i < reps; i++ {
		if s.Wire && i > 0 {
			start = starts.Intn(sz.timed)
		}
		r, err := runRep(ctx, s, start, sz, scratch)
		if err != nil {
			return out, err
		}
		digest.Write([]byte(r.Digest))
		out.Samples = r.Samples
		out.Shards = r.Shards
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Checks = append(out.Checks, r.Checks...)
		wan = append(wan, r.WANBytes)
		for name, v := range map[string]float64{
			"qps": r.QPS, "p50_ms": r.P50ms, "p99_ms": r.P99ms,
			"wan_bytes": float64(r.WANBytes), "setup_s": r.SetupS,
			"raw qps": r.Raw.QPS, "raw p50_ms": r.Raw.P50ms, "raw p99_ms": r.Raw.P99ms,
			"raw setup_s": r.Raw.SetupS, "host": r.Host,
		} {
			series[name] = append(series[name], v)
		}
		for part, name := range refPartNames {
			series["ref "+name] = append(series["ref "+name], r.RefMS[part])
		}
	}
	out.Digest = hex.EncodeToString(digest.Sum(nil))[:16]
	if !s.Wire {
		// One sequential caller and a deterministic policy: the WAN
		// byte count is the number later policy changes claim against.
		for _, w := range wan[1:] {
			if w != wan[0] {
				out.Checks = append(out.Checks, fmt.Sprintf("wan_bytes differs between repetitions: %v", wan))
				break
			}
		}
	}
	out.Metrics, out.Raw = map[string]stat{}, map[string]stat{}
	for _, m := range endToEndMetrics {
		out.Metrics[m.Name] = newStat(m.Unit, series[m.Name])
		if raw, timed := series["raw "+m.Name]; timed {
			out.Raw[m.Name] = newStat(m.Unit, raw)
		}
	}
	host := newStat("ratio", series["host"])
	out.HostFactor = &host
	for _, name := range refPartNames {
		out.Reference = append(out.Reference, newStat("ms", series["ref "+name]))
	}
	return out, nil
}
