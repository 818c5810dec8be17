package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"bypassyield/internal/federation"
	"bypassyield/internal/workload"
)

// spec is one benchmark workload. All run the EDR release on
// engine.Config{SampleEvery: 1000, Seed: 1} with the rate-profile
// policy; they differ in what the table below says.
type spec struct {
	Name string
	// Why is the reason the workload exists: the layer it loads.
	Why      string
	Mix      workload.Mix // zero value = the EDR class mix
	CachePct float64
	Gran     federation.Granularity
	Durable  bool // persist.Open on a state directory
	// Shards is the decision-shard count; 0 is byproxyd's default,
	// GOMAXPROCS rounded up to a power of two.
	Shards int
	// Wire sends statements through Proxy and DBNodes from min(nproc, 4)
	// callers; without it one caller calls Mediator.QueryStmt.
	Wire bool
}

var specs = []spec{
	{
		Name:     "edr-cached",
		Why:      "paper's operating point: cache 40% of EDR, ~96% byte hits, so proxy-side execute and the decision plane carry the time",
		CachePct: 0.4, Gran: federation.Columns, Wire: true,
	},
	{
		Name:     "edr-bypass",
		Why:      "same statements, cache 0.1%: every query ships a sub-query per site, so pool, frame codec on ~14 KB frames and node execute show",
		CachePct: 0.001, Gran: federation.Columns, Wire: true,
	},
	{
		Name:     "point-bypass",
		Why:      "identity, spatial and aggregate lookups, cache 0.1%: cheap execute and small frames, so per-message wire cost is the majority",
		Mix:      workload.Mix{Identity: .5, Spatial: .3, Aggregate: .2},
		CachePct: 0.001, Gran: federation.Columns, Wire: true,
	},
	// edr-durable is run by a full run and by -workload, but is not in
	// BENCHMARK.json: it is edr-cached less about 6% in qps (2 181
	// against 2 329), a gap inside the spread of either, so it gates
	// nothing edr-cached does not; the state manager's own costs and the
	// recovery check are in every traced pass; and a fifth workload's 22
	// runs of 20 to 30 s bring the driver's total near its limit in a
	// slow hour.
	{
		Name:     "edr-durable",
		Why:      "edr-cached with persist.Open (no per-record fsync, 30 s snapshots): the decide path journals every access; recovery is checked",
		CachePct: 0.4, Gran: federation.Columns, Durable: true, Wire: true,
	},
	{
		Name:     "tables-replay",
		Why:      "table granularity (nine objects, photoobj dominant), one caller into Mediator.QueryStmt, no wire: wan_bytes repeats exactly",
		CachePct: 0.4, Gran: federation.Tables,
		// One partition, so that the exact count is the same on every
		// host: on two the 40% cache is two slices of 20%, photoobj
		// (25.6%) fits neither, and nothing is cached at all.
		Shards: 1,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return spec{}, false
}

func (s spec) fedConfig(scratch string) fedConfig {
	return fedConfig{gran: s.Gran, cachePct: s.CachePct, shards: s.Shards, durable: s.Durable, scratch: scratch, wire: s.Wire}
}

// sizes are the statement counts of one repetition.
type sizes struct {
	warm   int // warm-up statements: discarded, counted in setup_s
	timed  int // timed statements per repetition
	traced int // statements of the traced pass
	// segments is how many pieces the timed statements are sent in, with
	// a slice of the reference task (ref.go) before each and after the last.
	segments int
}

// fullReps is how many repetitions a run makes. Run length is a count of
// statements, not a stopwatch, so that two commits run the same input
// however fast they are.
const fullReps = 3

// timedPerSecond turns the driver's --seconds into statements per
// repetition: 10 gives the 10 000 that leave 100 samples beyond p99.
const timedPerSecond = 1000

var (
	fullSizes  = sizes{warm: 2000, traced: 3000, segments: 10} // timed comes from --seconds
	quickSizes = sizes{warm: 60, timed: 300, traced: 120, segments: 1}
)

// input is the statement list of one run.
type input struct {
	sqls   []string
	digest string        // identifies the list, in order
	genPer time.Duration // Stream.Next per statement
}

// generate makes one repetition's statements: warm statements that
// always come first and in the same order, then n more, starting at the
// k-th of them and wrapping around at the end.
//
// The population is drawn from the workload's stream under the EDR
// profile's own seed and is the same for every --seed. An EDR stream's
// cost and WAN bytes hang on the few cold tables its campaigns happen
// to pick: ten independently seeded streams of 12 000 statements
// differed by 13-28% in throughput and 48% in WAN bytes (quartile
// distance over median), which no bound could resolve. So the seed only
// chooses k, where in the population a timed run starts: every seed
// runs the same statements, neighbours staying neighbours, against a
// cache whose history differs.
func generate(s spec, warm, n, k int) (input, error) {
	p := workload.EDRProfile()
	p.Mix = s.Mix
	start := time.Now()
	st, err := workload.NewStream(p)
	if err != nil {
		return input{}, fmt.Errorf("workload %s: %w", s.Name, err)
	}
	drawn := make([]string, warm+n)
	for i := range drawn {
		drawn[i] = st.Next().SQL
	}
	in := input{genPer: time.Since(start) / time.Duration(len(drawn))}

	in.sqls = append(in.sqls, drawn[:warm]...)
	in.sqls = append(in.sqls, drawn[warm+k:]...)
	in.sqls = append(in.sqls, drawn[warm:warm+k]...)
	h := sha256.New()
	for _, q := range in.sqls {
		h.Write([]byte(q))
		h.Write([]byte{0})
	}
	in.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return in, nil
}
