package wire

import (
	"fmt"
	"net"

	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/federation"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/sqlparse"
)

// DBNode is a federation member database: it owns the tables of one
// site and answers sub-queries and object fetches over TCP.
//
// Each node carries its own obs registry: dbnode.queries /
// dbnode.fetches counters, the wire.frames_rx / wire.frames_tx /
// wire.bytes_rx / wire.bytes_tx transport families per message type
// and wire.client_conns_opened / _closed (its client is the proxy), as
// a proxy counts them, runtime.* self-observation gauges, and —
// because the registry is shared with the node's engine — the
// engine.rows_scanned / engine.yield_bytes counters. A node-side flight
// recorder captures slow and failing sub-query executions; its
// exemplars carry the trace id the proxy forwarded, so a
// federation-wide scrape can merge proxy and node views of the same
// query. A MsgScrape is answered with the registry snapshot and the
// recorder's counts and exemplars, Source "bydbd:<site>".
type DBNode struct {
	// Site names the site this node serves; queries for tables owned
	// by other sites are rejected.
	Site string

	*server
	db *engine.DB
	// sizes holds every object of this site as the mediator names it
	// (federation.Objects at Columns and at Views granularity).
	sizes map[core.ObjectID]int64

	queries *obs.Counter
	fetches *obs.Counter
}

// NewDBNode builds a node serving the given site of a release. The
// engine holds the full release; ownership is enforced per query. The
// node creates its own obs registry and attaches the engine to it.
func NewDBNode(site string, db *engine.DB) *DBNode {
	reg := obs.NewRegistry()
	db.SetObs(reg)
	obs.EnableRuntimeStats(reg)
	n := &DBNode{
		Site:    site,
		server:  newServer("bydbd:"+site, reg),
		db:      db,
		sizes:   make(map[core.ObjectID]int64),
		queries: reg.Counter("dbnode.queries"),
		fetches: reg.Counter("dbnode.fetches"),
	}
	n.flight = flightrec.New(flightrec.DefaultConfig(), reg)
	n.newSession = func() session { return &statement{n: n} }
	n.fetch = n.fetchObject
	n.scrape = n.observed
	for _, g := range []federation.Granularity{federation.Columns, federation.Views} {
		for id, o := range federation.Objects(db.Schema(), g, nil) {
			if o.Site == site {
				n.sizes[id] = o.Size
			}
		}
	}
	return n
}

// SetFlightConfig replaces the node's flight-recorder tuning. Call
// before Listen.
func (n *DBNode) SetFlightConfig(cfg flightrec.Config) {
	n.flight = flightrec.New(cfg, n.reg)
}

// SetConnWrapper interposes w on every accepted connection — the
// chaos hook (bydbd -chaos wraps conns in a faultnet injector). Call
// before Listen; nil disables.
func (n *DBNode) SetConnWrapper(w func(net.Conn) net.Conn) { n.wrapConn = w }

// statement is the memory a connection's sub-queries are parsed, bound
// and answered in, one after another: what a federation.Scratch holds of
// a statement, without the mediation, and the reply.
type statement struct {
	n      *DBNode
	parser sqlparse.Parser
	bound  engine.Bound
	result engine.Result
	reply  ResultMsg
}

// answer executes a sub-query and answers with its result.
func (st *statement) answer(sql string, _ uint64, fc *flightrec.Capture) (*ResultMsg, error) {
	execStart := fc.Now()
	res, err := st.n.execute(st, sql)
	fc.SetMediation(fc.Now()-execStart, 0, 0)
	if err != nil {
		return nil, err
	}
	st.n.queries.Add(1)
	st.reply = ResultMsg{Columns: res.Columns, Rows: res.Rows, Bytes: res.Bytes, Tuples: res.Tuples}
	return &st.reply, nil
}

// release gives the result's tuples back (engine.Result.Release).
func (st *statement) release() { st.result.Release() }

// execute parses and binds a sub-query in st, checks that every
// referenced table belongs to this node's site, and runs what it bound.
// The result is st's: good until st's next sub-query, and the caller's
// to release.
func (n *DBNode) execute(st *statement, sql string) (*engine.Result, error) {
	stmt, err := st.parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if err := st.bound.Rebind(n.db.Schema(), stmt); err != nil {
		return nil, err
	}
	for _, t := range st.bound.Tables {
		if t.Site != n.Site {
			return nil, fmt.Errorf("dbnode %s: table %s is owned by %s", n.Site, t.Name, t.Site)
		}
	}
	if err := n.db.ExecuteInto(&st.result, &st.bound); err != nil {
		return nil, err
	}
	return &st.result, nil
}

// fetchObject answers a fetch of an object this site owns, named as the
// mediator names it, with its logical size.
func (n *DBNode) fetchObject(f FetchMsg) (FetchAckMsg, error) {
	size, ok := n.sizes[core.ObjectID(f.Object)]
	if !ok {
		return FetchAckMsg{}, fmt.Errorf("dbnode %s: no object %s of release %s at this site", n.Site, f.Object, n.db.Schema().Name)
	}
	n.fetches.Add(1)
	return FetchAckMsg{Object: f.Object, Size: size}, nil
}
