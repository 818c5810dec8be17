package core

// Episode tracking for the Rate-Profile algorithm (Sections 4.2–4.3).
//
// For objects not in the cache, the algorithm maintains a profile that
// divides the past accesses into disjoint episodes — clustered bursts
// of accesses. Within the current episode the load-adjusted rate
// profile (LARP, eq. 4) is a continuous-time quantity
//
//	LARP_{i,e}(t) = (Σ y − f_i) / ((t − t_S)·s_i)
//
// — the rate profile "reduced by the load cost" (Section 4.2): the
// cumulative net savings the object would have realized had it been
// loaded at the episode start, per query per byte of cache. (The
// paper's typeset eq. 4 reads Σy/((t−tS)s) − f/s, with the penalty
// term outside the time denominator; that form never turns positive
// unless a single query's yield rivals the whole fetch cost, which
// contradicts the surrounding text — "the rate will always be
// increasing until the load penalty has been overcome, i.e., until
// LARP > 0" only holds for the cumulative form, which we therefore
// implement. See DESIGN.md.)
//
// Each completed episode is distilled into a single value, the
// load-adjusted rate (LAR, eq. 5): the maximum LARP attained during
// the episode — the best savings rate the object would have realized
// had it been cached for that episode. The object's overall LAR
// (eq. 6) is a recency-weighted average over episodes.
//
// Episode boundaries follow the paper's two heuristics: the current
// episode ends when (1) LARP falls below c·(running max LARP), or
// (2) the object has not been accessed during the last k queries. The
// paper uses c = 0.5 and k = 1000.

// EpisodeConfig parameterizes episode division and aging.
type EpisodeConfig struct {
	// C is the decay-tolerance fraction of heuristic (1); the episode
	// ends when LARP < C · maxLARP. The paper's value is 0.5.
	C float64
	// K is the idle horizon of heuristic (2), in queries. The paper's
	// value is 1000.
	K int64
	// Gamma is the per-episode aging factor: episode e (counting from
	// the most recent, which has weight 1) is weighted Gamma^age. The
	// paper only requires recent episodes to weigh more; we default
	// to 0.5.
	Gamma float64
	// MaxEpisodes bounds the retained episode history per object
	// (pruning); older episodes are dropped. Zero means the default.
	MaxEpisodes int
}

// DefaultEpisodeConfig returns the paper's parameterization.
func DefaultEpisodeConfig() EpisodeConfig {
	return EpisodeConfig{C: 0.5, K: 1000, Gamma: 0.5, MaxEpisodes: 8}
}

func (c *EpisodeConfig) fill() {
	if c.C == 0 {
		c.C = 0.5
	}
	if c.K == 0 {
		c.K = 1000
	}
	if c.Gamma == 0 {
		c.Gamma = 0.5
	}
	if c.MaxEpisodes == 0 {
		c.MaxEpisodes = 8
	}
}

// profile is the out-of-cache metadata for one object: the open
// episode plus the LAR values of completed episodes (oldest first).
type profile struct {
	open       bool
	started    bool    // at least one access in the open episode
	start      int64   // t_S of the open episode
	sumYield   int64   // Σ y within the open episode
	maxLARP    float64 // running max of LARP over the open episode
	lastAccess int64   // time of the most recent access (for pruning and heuristic 2)
	past       []float64
}

// larp evaluates eq. 4 (cumulative form, see the package comment
// above) at time t for the open episode. The paper evaluates LARP at
// query arrival times; at the very first access of an episode
// t == t_S, where we use a one-query interval (the access itself
// consumed one unit of relative time).
func (p *profile) larp(t int64, obj Object) float64 {
	dt := t - p.start
	if dt < 1 {
		dt = 1
	}
	return (float64(p.sumYield) - float64(obj.FetchCost)) / (float64(dt) * float64(obj.Size))
}

// closeEpisode records the open episode's LAR and resets the open
// state. A never-accessed open episode is not recorded.
//
// Episodes whose rate never overcame the load cost record zero, not
// their negative maximum: eq. 5's "maximum value describes the
// balance point between network savings overcoming the initial load
// cost and, later, reduced usage causing the utility to decrease"
// presumes the balance point was reached. A never-profitable episode
// realized no savings opportunity — recording its raw negative
// maximum (whose magnitude is just the unamortized fetch penalty)
// would let a history of light probing drown out a later genuine
// burst in the eq. 6 average, and the object could never be loaded
// again.
func (p *profile) closeEpisode(maxEpisodes int) {
	if !p.open {
		return
	}
	rec := p.maxLARP
	if rec < 0 {
		rec = 0
	}
	p.past = append(p.past, rec)
	if len(p.past) > maxEpisodes {
		p.past = p.past[len(p.past)-maxEpisodes:]
	}
	p.open = false
	p.started = false
	p.sumYield = 0
	p.maxLARP = 0
}

// lar evaluates eq. 6: the aging-weighted average of episode LARs,
// including the open episode's running maximum as the most recent
// contribution.
func (p *profile) lar(gamma float64) float64 {
	var num, den float64
	w := 1.0
	if p.open {
		num += p.maxLARP
		den += 1
		w = gamma
	}
	for i := len(p.past) - 1; i >= 0; i-- {
		num += w * p.past[i]
		den += w
		w *= gamma
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// profileTable manages profiles for all objects observed outside the
// cache, with pruning to keep metadata compact: profiles idle longer
// than the prune horizon are discarded, and the table is bounded by
// MaxProfiles (discarding the least recently accessed).
type profileTable struct {
	cfg         EpisodeConfig
	maxProfiles int
	byObj       objTable[*profile]
	tel         *Telemetry // optional; counts episode open/close churn
}

func newProfileTable(cfg EpisodeConfig, maxProfiles int) *profileTable {
	cfg.fill()
	if maxProfiles <= 0 {
		maxProfiles = 1 << 16
	}
	return &profileTable{cfg: cfg, maxProfiles: maxProfiles}
}

// get returns obj's profile, nil for an untracked object.
func (pt *profileTable) get(obj Object) *profile {
	if p := pt.byObj.find(obj); p != nil {
		return *p
	}
	return nil
}

// observe records a bypassed access at time t and returns the object's
// updated LAR with its episode state: the count of completed episodes,
// and the phase, which an observation always leaves open. It applies
// both episode-termination heuristics.
func (pt *profileTable) observe(t int64, obj Object, yield int64) Explain {
	p := pt.get(obj)
	if p == nil {
		p = &profile{lastAccess: t}
		*pt.byObj.put(obj) = p
		pt.prune(t)
	}
	// Heuristic (2): idle too long → the burst ended; close it out.
	if p.open && t-p.lastAccess > pt.cfg.K {
		p.closeEpisode(pt.cfg.MaxEpisodes)
		pt.tel.EpisodeClosed()
	}
	if !p.open {
		p.open = true
		p.started = false
		p.start = t
		p.sumYield = 0
		pt.tel.EpisodeOpened()
	}
	p.lastAccess = t
	p.sumYield += yield
	l := p.larp(t, obj)
	switch {
	case !p.started:
		// The running max starts from the first observed LARP (which
		// is typically negative: the load penalty dominates early).
		p.started = true
		p.maxLARP = l
	case l > p.maxLARP:
		p.maxLARP = l
	case p.maxLARP > 0 && l < pt.cfg.C*p.maxLARP:
		// Heuristic (1): the rate fell below the decay tolerance; end
		// the episode and begin a new one at this access. The guard
		// maxLARP > 0 follows the paper's observation that the rate
		// only increases until the load penalty is overcome.
		p.closeEpisode(pt.cfg.MaxEpisodes)
		pt.tel.EpisodeClosed()
		p.open = true
		p.started = true
		p.start = t
		p.sumYield = yield
		p.maxLARP = p.larp(t, obj)
		pt.tel.EpisodeOpened()
	}
	return Explain{LAR: p.lar(pt.cfg.Gamma), Episodes: int64(len(p.past)), EpisodePhase: "open"}
}

// onLoad closes the open episode when the object enters the cache; its
// subsequent in-cache performance is tracked by the rate profile, not
// the episode history.
func (pt *profileTable) onLoad(obj Object) {
	if p := pt.get(obj); p != nil {
		if p.open {
			pt.tel.EpisodeClosed()
		}
		p.closeEpisode(pt.cfg.MaxEpisodes)
	}
}

// prune enforces the metadata bound: drop profiles idle beyond the
// horizon; if still over budget, drop the least recently accessed (the
// smallest id among equals, wherever the table keeps them).
func (pt *profileTable) prune(t int64) {
	if pt.byObj.len() <= pt.maxProfiles {
		return
	}
	horizon := 4 * pt.cfg.K
	pt.byObj.keep(func(_ ObjectID, p **profile) bool { return t-(*p).lastAccess <= horizon })
	for pt.byObj.len() > pt.maxProfiles {
		var oldest ObjectID
		oldestT := int64(1<<63 - 1)
		pt.byObj.each(func(id ObjectID, p **profile) {
			if last := (*p).lastAccess; last < oldestT || last == oldestT && id < oldest {
				oldestT, oldest = last, id
			}
		})
		pt.byObj.delID(oldest)
	}
}

// size reports the number of tracked profiles (for tests of the
// metadata bound).
func (pt *profileTable) size() int { return pt.byObj.len() }
