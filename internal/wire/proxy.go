package wire

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
)

// DefaultRPCTimeout bounds each node RPC exchange (write + read). A
// hung node must not hold a query, its inflight slot and its pooled
// connection forever; see SetRPCTimeout.
const DefaultRPCTimeout = 10 * time.Second

// DefaultMaxInflight bounds concurrently pipelined client queries;
// see Proxy.SetConcurrency and byproxyd -max-inflight.
const DefaultMaxInflight = 64

// Proxy is the paper's mediator-collocated bypass-yield cache as a
// network daemon. Clients send SQL; the proxy mediates the query,
// drives the cache policy, and exchanges sub-queries and object
// fetches with the per-site database nodes for every bypassed or
// loaded object.
//
// The query pipeline is concurrent: mediation's decision phase is a
// short critical section inside the mediator (sequential, preserving
// query ordering and exact Σ-yield = D_A accounting), while each
// query's WAN legs — object fetches and bypass sub-queries — fan out
// in parallel across sites over bounded per-site connection pools, and
// whole queries overlap end-to-end up to the inflight bound. The legs
// carry exactly what the mediator decided: each load is one fetch RPC,
// each bypass one statement or sub-query RPC (see runLeg).
//
// Byte economics are logical (the mediator's Figure-1 accounting over
// logical result sizes); the node RPCs carry bounded tuple samples,
// and their physical frame bytes are tracked separately as transport
// counters. A bypassed statement whose tables are all one site's is
// shipped to that site as the client sent it, and the node's reply is
// the client's answer; one whose decision its yield cannot change is
// shipped before the decision, which then takes the reply's bytes as its
// yield. Both are statement legs (see relay), and neither reply is
// decoded here: it is checked, and its tuples and columns are forwarded
// to the client as the node encoded them.
//
// Observability: the proxy publishes into an obs.Registry — the
// mediator's, when the mediator was built with one (so core and
// federation families appear in the same snapshot), otherwise its
// own. Metric families:
//
//	wire.frames_rx / wire.frames_tx    client frames per message type
//	wire.bytes_rx / wire.bytes_tx      client frame bytes per message type
//	                                   (a node counts its own the same way)
//	wire.node_tx_bytes / node_rx_bytes node RPC transport byte totals
//	wire.rpc_latency_us                node RPC latency histogram per site
//	wire.rpc_errors                    failed node RPCs per site
//	wire.rpc_timeouts                  node RPCs hitting the deadline, per site
//	wire.rpc_retries                   retries on a fresh dial, per site
//	wire.node_dials                    node connections dialed, per site
//	wire.node_conn_drops               node connections dropped, per site
//	wire.client_conns_opened/_closed   client connection churn
//	wire.breaker_state                 per-site breaker position (0 closed,
//	                                   1 open)
//	wire.breaker_transitions           breaker transitions per site/state
//	wire.probes                        pings to down sites per site/outcome
//	wire.pool_active                   per-site node conns checked out
//	wire.pool_idle                     per-site node conns parked for reuse
//	wire.pool_waits                    per-site pool Gets that had to block
//	wire.pool_wait_us                  per-site histogram of time blocked
//	                                   waiting for a pool slot
//
// The proxy also runs an always-on flight recorder (see
// internal/obs/flightrec): every query that errors, is served
// degraded, or breaches the recorder's latency threshold publishes a
// full exemplar — mediation phase timings, per-leg wire timings,
// decision record, breaker states, runtime snapshot, and a computed
// critical-path attribution — exported as obs.exemplars /
// obs.tail_cause / obs.tail_cause_us counters. The registry
// additionally carries runtime.* self-observation gauges refreshed at
// every Snapshot.
//
// One message serves all of it: a MsgScrape is answered with the
// registry snapshot, the flight recorder's counts and exemplars, the
// flow accounting, the cache, the transport counters and the decision
// ledger's records, under the request's one filter (see scrape).
type Proxy struct {
	*server
	med        *federation.Mediator
	gran       federation.Granularity
	sites      map[string]*site // sites with a node; read-only after Listen
	pcfg       PoolConfig
	rpcTimeout time.Duration

	// probeInterval and probeTimeout are ProbeInterval and ProbeTimeout;
	// the package's tests shorten them before Listen for a faster cycle.
	probeInterval, probeTimeout time.Duration

	// querySem bounds concurrently pipelined queries.
	querySem chan struct{}

	// dialer opens node connections; tests and -chaos replace it to
	// interpose fault injectors.
	dialer func(site, addr string) (net.Conn, error)

	nodeTx       *obs.Counter
	nodeRx       *obs.Counter
	rpcLatency   *obs.HistogramFamily
	rpcErrors    *obs.CounterFamily
	rpcTimeouts  *obs.CounterFamily
	rpcRetries   *obs.CounterFamily
	nodeDials    *obs.CounterFamily
	nodeDrops    *obs.CounterFamily
	breakerState *obs.GaugeFamily
	breakerTrans *obs.CounterFamily
	probes       *obs.CounterFamily
	poolActive   *obs.GaugeFamily
	poolIdle     *obs.GaugeFamily
	poolWaits    *obs.CounterFamily
	poolWaitDur  *obs.HistogramFamily
}

// site is one federation member with a database node: the node's
// address, the pool of connections to it and the breaker guarding it.
type site struct {
	addr    string
	peer    string // "node <site>": names the site in its replies' errors
	pool    *pool
	br      *breaker
	latency *obs.Histogram // the site's wire.rpc_latency_us
}

// NewProxy builds a proxy around a mediator. nodeAddrs maps each site
// to its database node's TCP address; sites absent from the map are
// served without node RPCs (pure simulation mode). The proxy adopts
// the mediator's obs registry when it has one, so one scrape's
// snapshot covers every layer.
func NewProxy(med *federation.Mediator, gran federation.Granularity, nodeAddrs map[string]string) *Proxy {
	reg := med.Obs()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	p := &Proxy{
		med:           med,
		gran:          gran,
		sites:         make(map[string]*site, len(nodeAddrs)),
		rpcTimeout:    DefaultRPCTimeout,
		probeInterval: ProbeInterval,
		probeTimeout:  ProbeTimeout,
		pcfg:          PoolConfig{}.sanitize(),
		querySem:      make(chan struct{}, DefaultMaxInflight),
		server:        newServer("byproxyd", reg),
	}
	p.newSession = func() session { return &connScratch{p: p} }
	p.scrape = p.scrapeProxy
	p.dialer = func(_, addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, DefaultDialTimeout)
	}
	p.nodeTx = reg.Counter("wire.node_tx_bytes")
	p.nodeRx = reg.Counter("wire.node_rx_bytes")
	p.rpcLatency = reg.HistogramFamily("wire.rpc_latency_us", obs.DefaultLatencyBuckets())
	p.rpcErrors = reg.CounterFamily("wire.rpc_errors")
	p.rpcTimeouts = reg.CounterFamily("wire.rpc_timeouts")
	p.rpcRetries = reg.CounterFamily("wire.rpc_retries")
	p.nodeDials = reg.CounterFamily("wire.node_dials")
	p.nodeDrops = reg.CounterFamily("wire.node_conn_drops")
	p.breakerState = reg.GaugeFamily("wire.breaker_state")
	p.breakerTrans = reg.CounterFamily("wire.breaker_transitions")
	p.probes = reg.CounterFamily("wire.probes")
	p.poolActive = reg.GaugeFamily("wire.pool_active")
	p.poolIdle = reg.GaugeFamily("wire.pool_idle")
	p.poolWaits = reg.CounterFamily("wire.pool_waits")
	p.poolWaitDur = reg.HistogramFamily("wire.pool_wait_us", obs.DefaultLatencyBuckets())
	obs.EnableRuntimeStats(reg)
	p.buildFlight(flightrec.DefaultConfig())
	for name, addr := range nodeAddrs {
		p.sites[name] = &site{addr: addr, peer: "node " + name}
	}
	p.buildSites()
	med.SetHealth(p)
	return p
}

// buildFlight (re)creates the flight recorder; the annotate hook
// stamps every exemplar with the per-site breaker positions so a tail
// inspection sees the federation's health at capture time.
func (p *Proxy) buildFlight(cfg flightrec.Config) {
	p.flight = flightrec.New(cfg, p.reg)
	p.flight.SetAnnotate(func(e *flightrec.Exemplar) {
		for name, s := range p.sites {
			e.Breakers = append(e.Breakers, flightrec.BreakerRec{Site: name, State: s.br.State().String()})
		}
		sort.Slice(e.Breakers, func(i, j int) bool { return e.Breakers[i].Site < e.Breakers[j].Site })
	})
}

// SetFlightConfig replaces the flight recorder's capture tuning
// (threshold, ring capacity, reservoir). Call before Listen.
func (p *Proxy) SetFlightConfig(cfg flightrec.Config) { p.buildFlight(cfg) }

// buildSites gives every site with a node a fresh connection pool and a
// fresh, closed breaker under the current configuration. The records are
// not touched once the proxy listens, so lock-free reads are safe; each
// pool and breaker has its own lock.
func (p *Proxy) buildSites() {
	m := poolMetrics{
		active:  p.poolActive,
		idle:    p.poolIdle,
		waits:   p.poolWaits,
		waitDur: p.poolWaitDur,
		dials:   p.nodeDials,
		drops:   p.nodeDrops,
	}
	dial := func(site, addr string) (net.Conn, error) { return p.dialer(site, addr) }
	onTransition := func(name string, from, to BreakerState) {
		p.breakerState.Get(name).Set(int64(to))
		p.breakerTrans.Get(name + "/" + to.String()).Add(1)
		if to == BreakerOpen {
			// Pooled idle connections to a tripped site are presumed
			// dead; drop them so recovery starts from fresh dials.
			p.sites[name].pool.DropIdle()
		}
		p.logf("proxy: breaker %s: %s -> %s", name, from, to)
	}
	for name, s := range p.sites {
		s.pool = newPool(name, s.addr, p.pcfg, dial, m)
		s.br = newBreaker(name, onTransition)
		s.latency = p.rpcLatency.Get(name)
		p.breakerState.Get(name).Set(int64(BreakerClosed))
	}
}

// SetRPCTimeout replaces the per-RPC deadline applied to node
// exchanges; d ≤ 0 disables deadlines. Call before Listen.
func (p *Proxy) SetRPCTimeout(d time.Duration) { p.rpcTimeout = d }

// SetDialer replaces how node connections are opened — tests and the
// -chaos flag interpose fault injectors here. Call before Listen.
func (p *Proxy) SetDialer(f func(site, addr string) (net.Conn, error)) {
	if f != nil {
		p.dialer = f
	}
}

// SetBreakerConfig does nothing.
//
// Deprecated: the breakers have no knobs (see FailureThreshold); the
// method stays only until the frozen bench/ module stops calling it.
func (p *Proxy) SetBreakerConfig(BreakerConfig) {}

// SetPoolConfig replaces the per-site connection-pool bounds,
// rebuilding the per-site records. Call before Listen.
func (p *Proxy) SetPoolConfig(cfg PoolConfig) {
	p.pcfg = cfg.sanitize()
	p.buildSites()
}

// SetConcurrency tunes the pipeline: maxInflight bounds concurrently
// pipelined client queries (≤ 0 restores DefaultMaxInflight;
// 1 serializes queries end-to-end — the pre-pipeline behaviour). Call
// before Listen.
//
// The second parameter is ignored. Deprecated: it bounded WAN legs
// across all queries; per-site pressure is capped by the pools, and the
// parameter stays only until the frozen bench/ module stops passing it.
// (The function itself is not deprecated, so the marker does not open
// the paragraph.)
func (p *Proxy) SetConcurrency(maxInflight, _ int) {
	if maxInflight <= 0 {
		maxInflight = DefaultMaxInflight
	}
	p.querySem = make(chan struct{}, maxInflight)
}

// BreakerState reports a site's breaker position (closed for sites
// without a configured node).
func (p *Proxy) BreakerState(name string) BreakerState {
	if s := p.sites[name]; s != nil {
		return s.br.State()
	}
	return BreakerClosed
}

// SiteAvailable implements federation.SiteHealth: the mediator asks
// it before charging a bypass or load whether the site can serve at
// all. Sites without a configured node are simulation-mode and always
// available; otherwise only a closed breaker admits traffic.
func (p *Proxy) SiteAvailable(site string) (bool, string) {
	s, ok := p.sites[site]
	if !ok {
		return true, ""
	}
	if state := s.br.State(); state != BreakerClosed {
		return false, fmt.Sprintf("breaker %s site=%s", state, site)
	}
	return true, ""
}

// Listen starts accepting clients on addr, and the prober when the
// proxy has nodes, and returns the bound address.
func (p *Proxy) Listen(addr string) (string, error) {
	bound, err := p.server.Listen(addr)
	if err != nil {
		return "", err
	}
	if len(p.sites) > 0 {
		p.wg.Add(1)
		go p.probeLoop()
	}
	return bound, nil
}

// Close stops the prober and the listener, waits for in-flight
// connections and probes, and drains the connection pools.
func (p *Proxy) Close() error {
	err := p.server.Close()
	for _, s := range p.sites {
		s.pool.Close()
	}
	return err
}

// probeLoop is the prober: every probeInterval it pings each site whose
// breaker is open, on a fresh connection, and the first pong closes the
// breaker. Each ping runs on its own, so one hung until probeTimeout
// holds up neither the next nor another site's: a site that heals is
// readmitted by a ping sent within one interval of it. A ping lasts at
// most the dial timeout plus probeTimeout, which bounds how many are in
// flight to a down site. Probes run outside the mediation lock, so a
// site is readmitted while queries flow.
func (p *Proxy) probeLoop() {
	defer p.wg.Done()
	tick := time.NewTicker(p.probeInterval)
	defer tick.Stop()
	for {
		select {
		case <-p.done:
			return
		case <-tick.C:
			for name, s := range p.sites {
				if s.br.State() != BreakerClosed {
					p.wg.Add(1)
					go p.probe(name, s)
				}
			}
		}
	}
}

// probe pings one site and closes its breaker if it answers.
func (p *Proxy) probe(name string, s *site) {
	defer p.wg.Done()
	if !p.ping(name, s.addr) {
		p.probes.Get(name + "/fail").Add(1)
		return
	}
	p.probes.Get(name + "/ok").Add(1)
	s.br.RecordSuccess()
}

// ping reports whether a site's node answers a MsgPing within
// probeTimeout.
func (p *Proxy) ping(name, addr string) bool {
	conn, err := p.dialer(name, addr)
	if err != nil {
		return false
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(p.probeTimeout)); err != nil {
		return false
	}
	if _, err := WriteFrame(conn, MsgPing, PingMsg{}); err != nil {
		return false
	}
	t, body, _, err := ReadFrame(conn) // a fresh connection's one reply
	return err == nil && checkReply("node "+name, t, body, MsgPong, nil, nil) == nil
}

// connScratch is a client connection's session: what the proxy answers
// its statements in, one after another — the Scratch each is mediated in,
// where a relayed statement's reply from its node is kept, and the reply
// to the client, which borrows its columns and tuples from one or the
// other, so both are the next statement's only once that reply is
// written.
type connScratch struct {
	p     *Proxy
	stmt  federation.Scratch
	reply relayed
	res   ResultMsg
}

// answer mediates one client statement (handleQuery) and answers with
// its result.
func (cs *connScratch) answer(sql string, traceID uint64, fc *flightrec.Capture) (*ResultMsg, error) {
	if err := cs.p.handleQuery(cs, sql, traceID, fc, &cs.res); err != nil {
		return nil, err
	}
	return &cs.res, nil
}

// relayed is a relayed statement's reply from its node (relay): its size,
// and its tuples and columns as the node encoded them, copied into a
// buffer kept from one statement to the next, so that after the widest
// reply keeping one allocates nothing.
type relayed struct {
	rows, bytes int64
	fwd         forwarded
}

// keep checks a node's MsgResult body as it would be decoded (readResult)
// and keeps its size and a copy of its tuples and columns, decoding none
// of them. r is unchanged when body does not decode.
func (r *relayed) keep(body []byte) error {
	v, err := readResult(body, nil)
	if err != nil {
		return err
	}
	r.rows, r.bytes = v.Rows, v.Bytes
	r.fwd = forwarded{b: append(r.fwd.b[:0], v.fwd.b...), ragged: v.fwd.ragged}
	return nil
}

// release gives a statement's tuples back once the frame that carried
// them is written (federation.Scratch.Release). A relayed reply's bytes
// need no giving back: they are the connection's, and the next reply
// overwrites them — unless this one was large enough to have stretched
// them, as frameBufMaxCap bounds a connection's other buffers.
func (cs *connScratch) release() {
	cs.stmt.Release()
	if cap(cs.reply.fwd.b) > frameBufMaxCap {
		cs.reply.fwd = forwarded{}
	}
}

// leg is one node RPC a statement's mediation calls for, of one of three
// kinds: an object fetch (a load), a sub-query whose reply is dropped (a
// bypass of a statement the proxy answers itself), or a statement sent
// whole whose reply is kept in reply (see relay).
type leg struct {
	site   string
	object string   // fetch legs; "" for the others
	sql    string   // sub-query and statement legs; "" for fetches
	reply  *relayed // statement legs: where the node's reply is kept
}

// handleQuery mediates one client statement. traceID is the client's
// (zero when it sent none): the ledger records carry it, and so does
// every node RPC frame, so the nodes' exemplars of the query's legs join
// the proxy's under it. The query's own record — phases, decisions, one
// entry per WAN leg — is fc's.
//
// The pipeline is decide-then-execute: mediation (whose decision
// phase the mediator serializes internally) produces the per-object
// verdicts, then every WAN leg fans out concurrently across sites.
// The result frame is sent only after all legs settle, so a client's
// response still reflects its query's complete protocol exchange. A
// statement whose decision its yield cannot change is the exception:
// the mediator has it shipped to its site first, as a statement leg run
// before the decision, and the node's reply is both the yield it decides
// with and the client's answer.
//
// The statement is mediated in cs and the reply written into res, both
// the caller's: res's lists are emptied and refilled in place, and its
// columns and tuples are cs's, so the caller releases cs once res is
// sent and mediates nothing else in it before. A hit on a connection
// that has served a few allocates nothing here and nothing in mediation
// that outlives the statement.
func (p *Proxy) handleQuery(cs *connScratch, sql string, traceID uint64, fc *flightrec.Capture, res *ResultMsg) error {
	p.querySem <- struct{}{}
	defer func() { <-p.querySem }()
	tel := p.med.Telemetry()
	tel.QueryInflight(1)
	defer tel.QueryInflight(-1)

	// A shipped statement is not relayed again, whether or not its node
	// answered: the ship was its one relay attempt.
	var shipped struct {
		site string // "" when the statement was not shipped
		err  error  // why it was answered locally after all
	}
	ship := func(site string) (rows, bytes int64, ok bool) {
		if p.sites[site] == nil {
			return 0, 0, false
		}
		shipped.site = site
		shipped.err = p.runLeg(leg{site: site, sql: sql, reply: &cs.reply}, traceID, nil, fc)
		return cs.reply.rows, cs.reply.bytes, shipped.err == nil
	}
	// The trace id rides into the mediator so decision-ledger records
	// carry it; FormatID(0) is "" so untraced queries stay unmarked.
	rep, err := p.med.QueryScratch(&cs.stmt, sql, obs.FormatID(traceID), ship)
	if err != nil {
		return err
	}
	fc.SetMediation(rep.ExecUS, rep.LockWaitUS, rep.DecideUS)
	fc.SetDegraded(rep.Degraded)
	*res = ResultMsg{
		Columns:         rep.Result.Columns,
		Rows:            rep.Result.Rows,
		Bytes:           rep.Result.Bytes,
		Tuples:          rep.Result.Tuples,
		Partial:         rep.Degraded,
		Decisions:       res.Decisions[:0],
		SiteErrors:      res.SiteErrors[:0],
		TransportErrors: res.TransportErrors[:0],
	}
	if rep.Shipped {
		res.Columns, res.Tuples, res.fwd = nil, nil, cs.reply.fwd
	}
	if shipped.err != nil {
		res.TransportErrors = append(res.TransportErrors, SiteErrorMsg{Site: shipped.site, Error: shipped.err.Error()})
	}
	for _, se := range rep.SiteErrors {
		res.SiteErrors = append(res.SiteErrors, SiteErrorMsg{
			Site:      se.Site,
			Error:     se.Reason,
			LostBytes: se.LostBytes,
		})
	}
	// Per-site protocol traffic: the statement, or sub-queries, for
	// bypassed objects (appendBypassLegs), and object fetches for every
	// load. Forced and failed legs never reach the network — their sites
	// are known unavailable.
	var legs []leg
	bypass := false
	res.Decisions = slices.Grow(res.Decisions, len(rep.Decisions))
	for _, d := range rep.Decisions {
		verdict := d.Decision.String()
		if d.Failed {
			verdict = "failed"
		}
		res.Decisions = append(res.Decisions, DecisionMsg{
			Object:   string(d.Object),
			Site:     d.Site,
			Yield:    d.Yield,
			Decision: verdict,
			Forced:   d.Forced,
			Failed:   d.Failed,
			Reason:   d.Reason,
		})
		fc.Decision(string(d.Object), d.Site, verdict, d.Reason, d.Yield)
		if d.Forced || d.Failed {
			continue
		}
		switch d.Decision {
		case core.Bypass:
			bypass = true
		case core.Load:
			legs = append(legs, leg{site: d.Site, object: string(d.Object)})
		}
	}
	if bypass && shipped.site == "" {
		legs = appendBypassLegs(legs, rep, &cs.reply)
	}
	p.runLegs(legs, traceID, res, fc)
	return nil
}

// appendBypassLegs appends what a statement with a bypassed object
// ships after its decision. A healthy statement whose tables are all one
// site's goes to that site whole, as the client sent it (rep.SQL), and
// the node's reply is kept in reply to answer the client: the
// paper's bypass, the query shipped to the server that owns its data.
// Any other — tables on two sites, or a degraded statement — ships one
// sub-query per FROM table with a bypassed object (the table's own, one
// of its columns, or a view over it), built from the statement as the
// mediator bound it (rep.Bound): the proxy does not bind. Their replies
// are read and dropped.
func appendBypassLegs(legs []leg, rep *federation.QueryReport, reply *relayed) []leg {
	b := rep.Bound
	if site, ok := federation.OneSite(b); ok && !rep.Degraded {
		return append(legs, leg{site: site, sql: rep.SQL, reply: reply})
	}
	bypassed := make([]bool, len(b.Schema.Tables)) // by table position in the schema
	for _, d := range rep.Decisions {
		if d.Decision == core.Bypass && !d.Forced && !d.Failed {
			bypassed[d.Table] = true
		}
	}
	for i, sub := range federation.Subqueries(b) {
		if bypassed[b.TablePos[i]] {
			legs = append(legs, leg{site: b.Tables[i].Site, sql: sub.String()})
		}
	}
	return legs
}

// runLegs executes a query's WAN legs after its decision, concurrently,
// one goroutine per leg (throttled per site by the connection pools).
// Leg failures do not fail the query — the mediator already accounted
// the decisions over logical sizes — but they are annotated on the
// result as transport errors.
func (p *Proxy) runLegs(legs []leg, traceID uint64, res *ResultMsg, fc *flightrec.Capture) {
	if len(legs) == 0 {
		return
	}
	if len(legs) == 1 { // no goroutine churn for the common single-leg query
		if err := p.runLeg(legs[0], traceID, res, fc); err != nil {
			res.TransportErrors = append(res.TransportErrors, SiteErrorMsg{Site: legs[0].site, Error: err.Error()})
		}
		return
	}
	var (
		wg  sync.WaitGroup
		emu sync.Mutex // guards res.TransportErrors
	)
	wg.Add(len(legs))
	for _, l := range legs {
		go func() {
			defer wg.Done()
			if err := p.runLeg(l, traceID, res, fc); err != nil {
				emu.Lock()
				res.TransportErrors = append(res.TransportErrors, SiteErrorMsg{Site: l.site, Error: err.Error()})
				emu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// runLeg performs one leg's node RPC — the one place a statement's WAN
// traffic is sent — and returns its error, which it has logged and
// recorded as one of fc's legs. res is the statement's answer once it is
// decided, and nil for a statement leg run before the decision (see
// relay).
func (p *Proxy) runLeg(l leg, traceID uint64, res *ResultMsg, fc *flightrec.Capture) error {
	tel := p.med.Telemetry()
	tel.LegInflight(1)
	defer tel.LegInflight(-1)
	var (
		err  error
		lt   legTiming
		kind = "subquery" // a statement leg too: the sub-query that is the whole statement
	)
	startUS := fc.Now()
	legStart := time.Now()
	switch {
	case l.object != "":
		kind = "fetch"
		err = p.nodeRPC(l.site, MsgFetch, FetchMsg{Object: l.object}, MsgFetchAck, nil, &lt)
	case l.reply != nil:
		err = p.relay(l, traceID, &lt, res)
	default:
		err = p.nodeRPC(l.site, MsgQuery, QueryMsg{SQL: l.sql, TraceID: obs.FormatID(traceID)}, MsgResult, nil, &lt)
	}
	fc.Leg(l.site, kind, l.object, startUS, lt.poolWaitUS, lt.rpcUS, time.Since(legStart).Microseconds(), err)
	if err != nil {
		p.logf("proxy: %s to %s: %v", kind, l.site, err)
	}
	return err
}

// failConn records an RPC failure: the checked-out connection is
// discarded back to its pool and deadline expiries are counted
// separately.
func (p *Proxy) failConn(sp *pool, conn *nodeConn, site string, err error) {
	sp.Discard(conn)
	if isTimeout(err) {
		p.rpcTimeouts.Get(site).Add(1)
	}
	p.rpcErrors.Get(site).Add(1)
}

// isTimeout reports whether err is a network timeout.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// nodeRPC performs one request/response exchange with a site's node,
// gated by the site's circuit breaker, and checks the reply (checkReply)
// before its connection goes back to the pool: a reply of type want is
// success, decoded into reply when it is not nil. What the check finds —
// the node's error, or a reply of another type — is returned as is: the
// exchange succeeded, so it neither retries nor charges the breaker.
// Returns nil when the site has no node (simulation mode), and a
// *SiteUnavailableError — without touching the network — when the
// breaker is open.
//
// A failure that is not a timeout — most often a pooled connection the
// node has closed — is retried once, straight away, on a fresh dial that
// drains the pool's idle connections, presumed as stale. A timeout is not
// retried: the node is hung, and another attempt would hold the leg's
// pool slot through another full deadline. Only a failed retry or a
// timeout counts against the site. Retrying is safe because a failed leg
// never changes the client's answer (see relay).
func (p *Proxy) nodeRPC(site string, t MsgType, payload any, want MsgType, reply *relayed, lt *legTiming) error {
	s := p.sites[site]
	if s == nil {
		return nil
	}
	if state := s.br.State(); state != BreakerClosed {
		return &SiteUnavailableError{Site: site, State: state}
	}
	answer, err := p.tryNodeRPC(s, t, payload, want, reply, false, lt)
	if err != nil && !isTimeout(err) {
		p.rpcRetries.Get(site).Add(1)
		answer, err = p.tryNodeRPC(s, t, payload, want, reply, true, lt)
	}
	if err != nil {
		s.br.RecordFailure()
		return err
	}
	s.br.RecordSuccess()
	return answer
}

// tryNodeRPC is one attempt of nodeRPC over a connection from the site's
// pool: answer is the reply check's error, err the transport's. fresh
// forces a fresh dial, discarding pooled idle connections.
func (p *Proxy) tryNodeRPC(s *site, t MsgType, payload any, want MsgType, reply *relayed, fresh bool, lt *legTiming) (answer, err error) {
	sp := s.pool
	site := sp.site
	acquireStart := time.Now()
	conn, err := sp.Get(fresh)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if lt != nil {
		// Accumulated across the retry: every pool acquisition is time the
		// leg spent not talking to the network.
		lt.poolWaitUS += start.Sub(acquireStart).Microseconds()
	}
	if p.rpcTimeout > 0 {
		if err := conn.SetDeadline(start.Add(p.rpcTimeout)); err != nil {
			p.failConn(sp, conn, site, err)
			return nil, err
		}
	}
	n, err := WriteFrame(conn.Conn, t, payload)
	if err != nil {
		p.failConn(sp, conn, site, err)
		return nil, err
	}
	p.nodeTx.Add(int64(n))
	rt, body, rn, err := conn.fr.next(conn.Conn)
	if err != nil {
		p.failConn(sp, conn, site, err)
		return nil, err
	}
	p.nodeRx.Add(int64(rn))
	rpcUS := time.Since(start).Microseconds()
	s.latency.Observe(rpcUS)
	if lt != nil {
		lt.rpcUS = rpcUS // the successful attempt's round trip
	}
	var dst any // nil: the reply's type is all that is wanted
	if reply != nil {
		dst = reply
	}
	answer = checkReply(s.peer, rt, body, want, dst, nil) // before the connection's next exchange overwrites body
	if p.rpcTimeout > 0 && conn.SetDeadline(time.Time{}) != nil {
		// The exchange succeeded but the connection is broken for
		// reuse; discard it so the next checkout dials fresh.
		sp.Discard(conn)
	} else {
		sp.Put(conn)
	}
	return answer, nil
}

// legTiming carries one WAN leg's pool-acquire and round-trip
// durations out of the RPC plumbing and into the flight recorder.
type legTiming struct {
	poolWaitUS int64 // accumulated pool.Get time across attempts
	rpcUS      int64 // successful attempt's write+read round trip
}

// relay sends a statement whose tables are all one site's to that site
// as the client sent it and keeps the node's reply in l.reply: checked as
// it would be decoded, its tuples and columns kept as the node encoded
// them, not decoded. A reply with negative Rows or Bytes is refused: they
// come from outside the process. Before the decision (res nil) that is
// all: the mediator decides with the reply's Rows and Bytes, and an error
// has the statement executed and answered locally. After it, the reply's
// tuples and columns become the client's answer (res), forwarded as they
// are, when it is the result the mediator decided on: the same Rows and
// Bytes. A node error, a refused reply, a reply of another size or no
// reply leaves the local answer, with the leg's error saying why; a site
// without a node (simulation mode) leaves it without one.
func (p *Proxy) relay(l leg, traceID uint64, lt *legTiming, res *ResultMsg) error {
	if p.sites[l.site] == nil {
		return nil
	}
	if err := p.nodeRPC(l.site, MsgQuery, QueryMsg{SQL: l.sql, TraceID: obs.FormatID(traceID)}, MsgResult, l.reply, lt); err != nil {
		return err
	}
	got := l.reply
	switch {
	case got.rows < 0 || got.bytes < 0:
		return fmt.Errorf("node %s: refused a reply of %d rows and %d bytes; answered locally", l.site, got.rows, got.bytes)
	case res == nil:
		return nil
	case got.rows != res.Rows || got.bytes != res.Bytes:
		return fmt.Errorf("node %s: mismatch: reply of %d rows and %d bytes, the mediator's result %d and %d; answered locally",
			l.site, got.rows, got.bytes, res.Rows, res.Bytes)
	}
	res.Columns, res.Tuples, res.fwd = nil, nil, got.fwd
	return nil
}
