package wire

import (
	"errors"
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
// dbnode.fetches / dbnode.errors counters, dbnode.tx_bytes /
// dbnode.rx_bytes transport totals, wire.frames_rx per message type,
// runtime.* self-observation gauges, and — because the registry is
// shared with the node's engine — the engine.rows_scanned /
// engine.yield_bytes counters. A node-side flight recorder captures
// slow and failing sub-query executions; its exemplars carry the trace
// id the proxy forwarded, so a federation-wide scrape can merge proxy
// and node views of the same query. A MsgScrape is answered with the
// registry snapshot and the recorder's counts and exemplars, Source
// "bydbd:<site>".
type DBNode struct {
	// Site names the site this node serves; queries for tables owned
	// by other sites are rejected.
	Site string

	*server
	db       *engine.DB
	wrapConn func(net.Conn) net.Conn
	// sizes holds every object of this site as the mediator names it
	// (federation.Objects at Columns and at Views granularity).
	sizes map[core.ObjectID]int64

	reg     *obs.Registry
	queries *obs.Counter
	fetches *obs.Counter
	errs    *obs.Counter
	txBytes *obs.Counter
	rxBytes *obs.Counter
	// framesRx counts the frames read per message type, as the proxy's
	// wire.frames_rx does.
	framesRx *obs.CounterFamily
	flight   *flightrec.Recorder
}

// NewDBNode builds a node serving the given site of a release. The
// engine holds the full release; ownership is enforced per query. The
// node creates its own obs registry and attaches the engine to it.
func NewDBNode(site string, db *engine.DB) *DBNode {
	reg := obs.NewRegistry()
	db.SetObs(reg)
	obs.EnableRuntimeStats(reg)
	n := &DBNode{
		Site:     site,
		db:       db,
		sizes:    make(map[core.ObjectID]int64),
		reg:      reg,
		queries:  reg.Counter("dbnode.queries"),
		fetches:  reg.Counter("dbnode.fetches"),
		errs:     reg.Counter("dbnode.errors"),
		txBytes:  reg.Counter("dbnode.tx_bytes"),
		rxBytes:  reg.Counter("dbnode.rx_bytes"),
		framesRx: reg.CounterFamily("wire.frames_rx"),
		flight:   flightrec.New(flightrec.DefaultConfig(), reg),
	}
	n.server = newServer("dbnode "+site, n.serveProxy)
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

// Flight returns the node's flight recorder.
func (n *DBNode) Flight() *flightrec.Recorder { return n.flight }

// Obs returns the node's registry.
func (n *DBNode) Obs() *obs.Registry { return n.reg }

// SetConnWrapper interposes w on every accepted connection — the
// chaos hook (bydbd -chaos wraps conns in a faultnet injector). Call
// before Listen; nil disables.
func (n *DBNode) SetConnWrapper(w func(net.Conn) net.Conn) { n.wrapConn = w }

// serveProxy applies the conn wrapper and serves one connection.
func (n *DBNode) serveProxy(conn net.Conn) {
	if n.wrapConn != nil {
		conn = n.wrapConn(conn)
	}
	defer conn.Close()
	n.serveConn(conn)
}

// statement is the memory a connection's sub-queries are parsed, bound
// and answered in, one after another: what a federation.Scratch holds of
// a statement, without the mediation.
type statement struct {
	parser sqlparse.Parser
	bound  engine.Bound
	result engine.Result
}

// release gives the result's tuples back (engine.Result.Release).
func (st *statement) release() { st.result.Release() }

// releaseStatement gives a sub-query's tuples back once the frame that
// carried them is written. The wire tests replace it to scramble the
// statement first, as they do the proxy's releaseScratch.
var releaseStatement = (*statement).release

func (n *DBNode) serveConn(conn net.Conn) {
	var (
		fr  = newFrameReader() // this connection's frames; Decode copies out of it
		q   QueryMsg           // this connection's sub-queries, one at a time
		st  statement          // what each is parsed, bound and executed in
		msg ResultMsg          // this connection's replies
	)
	for {
		t, body, rn, err := fr.next(conn)
		if err != nil {
			return // peer closed, protocol failure or a failed send; drop the conn
		}
		n.rxBytes.Add(int64(rn))
		n.framesRx.Add(t.String(), 1)
		switch t {
		case MsgQuery:
			if err := Decode(body, &q); err != nil {
				n.sendErr(conn, err)
				continue
			}
			fc := n.flight.Begin()
			fc.SetQuery(q.SQL, obs.ParseID(q.TraceID))
			execStart := fc.Now()
			res, err := n.execute(&st, q.SQL)
			fc.SetMediation(fc.Now()-execStart, 0, 0)
			if err != nil {
				n.sendErr(conn, err)
			} else {
				n.queries.Add(1)
				msg = ResultMsg{Columns: res.Columns, Rows: res.Rows, Bytes: res.Bytes, Tuples: res.Tuples}
				encStart := fc.Now()
				n.send(conn, MsgResult, &msg)
				fc.SetEncodeUS(fc.Now() - encStart)
			}
			n.flight.Finish(fc, err)
			// Written, and the capture closed: the next execution may
			// have the tuples' memory, and the next sub-query the rest
			// (see maxKeptStatement).
			releaseStatement(&st)
			if len(q.SQL) > maxKeptStatement {
				st = statement{}
			}
			q = QueryMsg{}
		case MsgFetch:
			var f FetchMsg
			if err := Decode(body, &f); err != nil {
				n.sendErr(conn, err)
				continue
			}
			size, err := n.objectSize(f.Object)
			if err != nil {
				n.sendErr(conn, err)
				continue
			}
			n.fetches.Add(1)
			n.send(conn, MsgFetchAck, FetchAckMsg{Object: f.Object, Size: size})
		case MsgScrape:
			var q ScrapeMsg
			if err := Decode(body, &q); err != nil {
				n.sendErr(conn, err)
				continue
			}
			n.send(conn, MsgScrapeResult, scrape("bydbd:"+n.Site, n.reg, n.flight, q))
		case MsgPing:
			n.send(conn, MsgPong, PongMsg{Site: n.Site})
		default:
			n.sendErr(conn, fmt.Errorf("dbnode: unexpected message type %s", t))
		}
	}
}

// send writes one frame, counting transport bytes. The peer is a
// closed loop waiting for exactly one reply, so no failure may be
// silent: a payload that does not encode is answered with a MsgError,
// and a failed write closes the connection, which ends serveConn at
// its next read.
func (n *DBNode) send(conn net.Conn, t MsgType, payload any) {
	wn, err := WriteFrame(conn, t, payload)
	if errors.Is(err, errEncode) {
		n.errs.Add(1)
		wn, err = WriteFrame(conn, MsgError, ErrorMsg{Message: err.Error()})
	}
	if err != nil {
		conn.Close()
		return
	}
	n.txBytes.Add(int64(wn))
}

// sendErr writes an error frame, counting it.
func (n *DBNode) sendErr(conn net.Conn, err error) {
	n.errs.Add(1)
	n.send(conn, MsgError, ErrorMsg{Message: err.Error()})
}

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

// objectSize resolves an object id, as the mediator names it, of an
// object this site owns to its logical size.
func (n *DBNode) objectSize(object string) (int64, error) {
	size, ok := n.sizes[core.ObjectID(object)]
	if !ok {
		return 0, fmt.Errorf("dbnode %s: no object %s of release %s at this site", n.Site, object, n.db.Schema().Name)
	}
	return size, nil
}
