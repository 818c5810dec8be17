package synth

import (
	"fmt"
	"math/rand"
	"time"

	"bypassyield/internal/catalog"
	"bypassyield/internal/trace"
	"bypassyield/internal/workload"
)

// Arrival is one scheduled operation: fire at At, as tenant Tenant.
type Arrival struct {
	// At is the offset from run start.
	At time.Duration
	// Slot indexes the scenario slot the arrival belongs to.
	Slot int
	// Tenant indexes the scenario tenant issuing the query.
	Tenant int
}

// Schedule derives the scenario's full arrival sequence. The result
// is a pure function of the scenario (rates, windows, seed): the
// dispatcher replays it against the wall clock without consulting the
// system under test, which is what makes the harness open-loop.
//
// Poisson pacing draws exponential inter-arrival gaps at each slot's
// peak rate and thins them to the instantaneous rate curve (Lewis &
// Shedler); uniform pacing steps deterministically by 1/r(t).
func Schedule(sc *Scenario) ([]Arrival, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc.fill()
	rng := rand.New(rand.NewSource(sc.Seed))
	picker := newTenantPicker(sc.Tenants)
	starts, _ := sc.Windows()

	var out []Arrival
	for i, slot := range sc.Slots {
		base, dur := starts[i], slot.Duration.D()
		rmax := slot.maxRate()
		if rmax <= 0 {
			continue // a zero-rate slot is a silent gap
		}
		switch sc.Arrival {
		case ArrivalUniform:
			// Deterministic pacing: step by the instantaneous period.
			// Zero-rate stretches (a sine touching its floor) advance by
			// a fixed epsilon without emitting.
			for t := time.Duration(0); t < dur; {
				r := slot.Rate(t)
				if r <= 0 {
					t += 10 * time.Millisecond
					continue
				}
				out = append(out, Arrival{At: base + t, Slot: i, Tenant: picker.pick(rng)})
				t += time.Duration(float64(time.Second) / r)
			}
		default: // poisson
			for t := time.Duration(0); ; {
				gap := rng.ExpFloat64() / rmax
				t += time.Duration(gap * float64(time.Second))
				if t >= dur {
					break
				}
				if rng.Float64()*rmax <= slot.Rate(t) {
					out = append(out, Arrival{At: base + t, Slot: i, Tenant: picker.pick(rng)})
				}
			}
		}
	}
	return out, nil
}

// tenantPicker draws tenant indices proportional to weight.
type tenantPicker struct {
	cum []float64
}

func newTenantPicker(ts []Tenant) *tenantPicker {
	p := &tenantPicker{cum: make([]float64, len(ts))}
	var sum float64
	for i, t := range ts {
		sum += t.Weight
		p.cum[i] = sum
	}
	return p
}

func (p *tenantPicker) pick(rng *rand.Rand) int {
	if len(p.cum) <= 1 {
		return 0
	}
	r := rng.Float64() * p.cum[len(p.cum)-1]
	for i, c := range p.cum {
		if r <= c {
			return i
		}
	}
	return len(p.cum) - 1
}

// Ops expands a schedule into the records a replay sends: record i is
// arrival i's statement, drawn from its tenant's workload stream, with
// Seq i+1 and the arrival's offset. Deterministic: tenant streams are
// seeded from the scenario seed and tenant index (or the tenant's
// explicit Seed), and arrivals consume them in schedule order.
func Ops(sc *Scenario, arrivals []Arrival) ([]trace.Record, error) {
	sc.fill()
	release := sc.Release
	if release == "" {
		release = "edr"
	}
	schema, err := catalog.Release(release)
	if err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	streams := make([]*workload.Stream, len(sc.Tenants))
	for i, t := range sc.Tenants {
		p := workload.Profile{
			Name:   fmt.Sprintf("%s/%s", sc.Name, t.Name),
			Schema: schema,
			// Queries is unused by streams but must be positive for the
			// profile to be well-formed elsewhere.
			Queries: 1,
			Seed:    t.Seed,
			ZipfS:   t.ZipfS,
		}
		if p.Seed == 0 {
			// Spread tenant streams far apart in seed space.
			p.Seed = sc.Seed*1_000_003 + int64(i)*7_919 + 1
		}
		if t.Mix != nil {
			p.Mix = *t.Mix
		}
		p.SizeShape = t.Size
		s, err := workload.NewStream(p)
		if err != nil {
			return nil, fmt.Errorf("synth: tenant %q: %w", t.Name, err)
		}
		streams[i] = s
	}
	recs := make([]trace.Record, len(arrivals))
	for i, a := range arrivals {
		st := streams[a.Tenant].Next()
		recs[i] = trace.Record{Seq: int64(i + 1), At: a.At, Class: st.Class, SQL: st.SQL}
	}
	return recs, nil
}
