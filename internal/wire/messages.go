package wire

import (
	"encoding/binary"
	"fmt"
	"slices"

	"bypassyield/internal/core"
	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
	"bypassyield/internal/obs/ledger"
)

// QueryMsg carries a SQL statement. TraceID is the query's trace id
// (16 hex digits, obs.FormatID), the key that joins its ledger records
// and the proxy's and nodes' exemplars; empty means untraced. Binary on
// the wire (see the package comment).
type QueryMsg struct {
	SQL     string
	TraceID string
}

func (q QueryMsg) appendBinary(b []byte) ([]byte, error) {
	b = append(b, formatBinary)
	b = appendStr(b, q.SQL)
	return appendStr(b, q.TraceID), nil
}

func (q *QueryMsg) decodeBinary(body []byte) error {
	if err := checkFormat(body); err != nil {
		return err
	}
	c := cursor{b: body, s: string(body), off: 1}
	v := QueryMsg{SQL: c.str(), TraceID: c.str()}
	if err := c.done(); err != nil {
		return err
	}
	*q = v
	return nil
}

// ResultMsg returns an execution result plus, from the proxy, the
// cache decisions the query triggered. Binary on the wire (see the
// package comment), its DecisionMsg and SiteErrorMsg lists included.
type ResultMsg struct {
	// Columns names the output columns.
	Columns []string
	// Rows is the logical result cardinality.
	Rows int64
	// Bytes is the logical result size (yield).
	Bytes int64
	// Tuples holds a bounded sample of result rows.
	Tuples [][]float64
	// Decisions lists per-object cache handling (proxy responses
	// only).
	Decisions []DecisionMsg
	// Partial marks a degraded result: one or more sites were
	// unavailable, so their legs were served from cache (possibly
	// stale) or dropped. SiteErrors carries the per-site detail.
	Partial    bool
	SiteErrors []SiteErrorMsg
	// TransportErrors lists WAN legs (fetches, sub-queries) that
	// failed at the transport layer after mediation decided and
	// accounted them. The logical result is unaffected — accounting is
	// over logical sizes — but clients can see which sites misbehaved.
	TransportErrors []SiteErrorMsg

	// fwd, when it holds bytes, is a relayed reply's tuples and columns as
	// its node encoded them (Proxy.relay), written in place of Tuples and
	// Columns, which are then empty.
	fwd forwarded
}

// forwarded is a result's tuples and columns in their wire layout, from
// the tuple count through the last column name, and whether the tuples
// are ragged: what a proxy forwards of a node's reply without decoding it.
type forwarded struct {
	b      []byte
	ragged bool
}

// SiteErrorMsg annotates one unavailable site's contribution to a
// partial result.
type SiteErrorMsg struct {
	// Site is the unavailable federation member.
	Site string
	// Error explains why (the breaker's state).
	Error string
	// LostBytes is the yield dropped from the result because the
	// site's uncached objects could not be served.
	LostBytes int64
}

// DecisionMsg is one per-object cache decision.
type DecisionMsg struct {
	Object   string
	Site     string
	Yield    int64
	Decision string
	// Forced marks a decision the policy did not choose freely: the
	// site was unavailable, so the mediator forced serve-from-cache.
	Forced bool
	// Failed marks a leg that could not be served at all (site down,
	// object not cached). Yield is what the leg would have delivered;
	// nothing was charged for it.
	Failed bool
	// Reason explains a forced or failed decision.
	Reason string
}

// ResultMsg flag bits.
const (
	resultPartial = 1 << iota
	// resultRagged: the tuples do not share one width of at least 1,
	// so each carries its own.
	resultRagged
)

// DecisionMsg flag bits.
const (
	decisionForced = 1 << iota
	decisionFailed
)

// decisionNames is DecisionMsg.Decision on the wire, by index:
// core.Decision's three names and the proxy's verdict on a leg that
// could not be served.
var decisionNames = [...]string{"hit", "bypass", "load", "failed"}

func (m ResultMsg) appendBinary(b []byte) ([]byte, error) {
	var flags byte
	if m.Partial {
		flags |= resultPartial
	}
	width, ragged := 0, m.fwd.ragged
	if m.fwd.b == nil && len(m.Tuples) > 0 {
		width = len(m.Tuples[0])
		// A zero width would not bound the tuple count by the bytes
		// that follow, so such tuples go the ragged way too.
		ragged = width == 0 || slices.ContainsFunc(m.Tuples, func(row []float64) bool { return len(row) != width })
	}
	if ragged {
		flags |= resultRagged
	}
	b = append(b, formatBinary, flags)
	b = binary.AppendVarint(b, m.Rows)
	b = binary.AppendVarint(b, m.Bytes)
	if m.fwd.b != nil {
		b = append(b, m.fwd.b...)
	} else {
		b = binary.AppendUvarint(b, uint64(len(m.Tuples)))
		if !ragged && len(m.Tuples) > 0 {
			b = binary.AppendUvarint(b, uint64(width))
			b = slices.Grow(b, 8*width*len(m.Tuples))
		}
		for _, row := range m.Tuples {
			if ragged {
				b = binary.AppendUvarint(b, uint64(len(row)))
			}
			b = appendFloats(b, row)
		}
		b = binary.AppendUvarint(b, uint64(len(m.Columns)))
		for _, name := range m.Columns {
			b = appendStr(b, name)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(m.Decisions)))
	for i := range m.Decisions {
		d := &m.Decisions[i]
		verdict := slices.Index(decisionNames[:], d.Decision)
		if verdict < 0 {
			return b, fmt.Errorf("decision %q of object %s has no wire encoding", d.Decision, d.Object)
		}
		var dflags byte
		if d.Forced {
			dflags |= decisionForced
		}
		if d.Failed {
			dflags |= decisionFailed
		}
		b = appendStr(b, d.Object)
		b = appendStr(b, d.Site)
		b = binary.AppendVarint(b, d.Yield)
		b = append(b, byte(verdict), dflags)
		b = appendStr(b, d.Reason)
	}
	b = appendSiteErrors(b, m.SiteErrors)
	return appendSiteErrors(b, m.TransportErrors), nil
}

func appendSiteErrors(b []byte, errs []SiteErrorMsg) []byte {
	b = binary.AppendUvarint(b, uint64(len(errs)))
	for i := range errs {
		b = appendStr(b, errs[i].Site)
		b = appendStr(b, errs[i].Error)
		b = binary.AppendVarint(b, errs[i].LostBytes)
	}
	return b
}

// resultStore is the memory a decoded ResultMsg's slices are cut from.
// Decode starts from an empty one, so everything it returns is fresh; a
// Client keeps one across replies, and after the first few a reply of
// any shape costs it no allocation — its strings included, which are the
// same few names reply after reply (names).
type resultStore struct {
	flat          []float64
	rows          [][]float64
	columns       []string
	decisions     []DecisionMsg
	siteErrs      []SiteErrorMsg
	transportErrs []SiteErrorMsg
	// names, when not nil, is where a reply's strings come from; from a
	// store without it they are cut from one copy of the frame's tail,
	// which is the cheaper way to decode one reply and no more.
	names names
}

// names interns the strings of the replies decoded into one store:
// column names, object ids and sites recur in every reply, so each is
// allocated when first seen and found — by its bytes in the frame
// buffer, without a copy — ever after. A string handed out is an
// ordinary immutable Go string that never aliases the frame buffer.
// What is long (an error text, a breaker's reason) or arrives once the
// table is full is copied and not kept, so no peer can grow the table
// past maxNames strings of maxNameLen bytes.
type names map[string]string

const (
	maxNames   = 4096
	maxNameLen = 64
)

func (n names) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > maxNameLen {
		return string(b)
	}
	if s, ok := n[string(b)]; ok { // the compiler looks b up without converting it
		return s
	}
	s := string(b)
	if len(n) < maxNames {
		n[s] = s
	}
	return s
}

// take returns n elements of *buf, replaced by an exactly sized fresh
// slice when it is too short, and nil for none (an absent list decodes
// to nil whatever the store holds). The elements are whatever the last
// reply left there: the decoder writes every one.
func take[T any](buf *[]T, n int) []T {
	if n == 0 {
		return nil
	}
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// decodeBinary fills m from body with slices cut from st (readResult).
// m is unchanged when body does not decode.
func (m *ResultMsg) decodeBinary(body []byte, st *resultStore) error {
	v, err := readResult(body, st)
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// readResult is the one reading of a MsgResult body, which decodes it
// and checks it alike: the format, the flags, every count against the
// bytes that remain, each decision's verdict and flags, and that the body
// is consumed exactly.
//
// With a store it decodes: the result's slices are cut from st, and its
// strings come from st's names or, without them, from one copy of the
// body's tail. Out of an empty store it allocates, for a result of any
// size, the tuple rows and their one backing array (one array per tuple
// when ragged), that one string, and one slice each for the columns,
// decisions and two error lists that are present; out of a Client's, once
// it has seen the reply's shape and names, nothing.
//
// With a nil st it only checks, and materializes nothing: the result
// holds Rows, Bytes and Partial, and fwd the tuples and columns as they
// lie in body (relayed.keep).
func readResult(body []byte, st *resultStore) (ResultMsg, error) {
	if err := checkFormat(body); err != nil {
		return ResultMsg{}, err
	}
	keep := st != nil
	c := cursor{b: body, off: 1}
	flags := c.byte()
	if flags&^(resultPartial|resultRagged) != 0 {
		c.fail()
	}
	v := ResultMsg{Partial: flags&resultPartial != 0, Rows: c.varint(), Bytes: c.varint()}
	tuplesAt := c.off
	if flags&resultRagged != 0 {
		n := c.count(1)
		if keep {
			v.Tuples = take(&st.rows, n)
		}
		for i := 0; i < n; i++ {
			row := c.floats(c.count(8))
			if keep {
				v.Tuples[i] = make([]float64, len(row)/8)
				getFloats(v.Tuples[i], row)
			}
		}
	} else if n := c.count(8); n > 0 {
		width := c.count(8 * n)
		if width == 0 {
			c.fail() // or n rows would cost no bytes
		}
		run := c.floats(n * width)
		if keep && width > 0 {
			v.Tuples = take(&st.rows, n)
			backing := take(&st.flat, n*width)
			getFloats(backing, run)
			for i := range v.Tuples {
				v.Tuples[i] = backing[i*width : (i+1)*width : (i+1)*width]
			}
		}
	}
	if c.err != nil {
		return ResultMsg{}, c.err
	}

	// Everything after the tuples is small and mostly strings.
	tail := c.off
	c = cursor{b: body[tail:], skip: !keep}
	if keep {
		c.names = st.names
		if c.names == nil {
			c.s = string(c.b)
		}
	}
	n := c.count(1)
	if keep {
		v.Columns = take(&st.columns, n)
	}
	for i := 0; i < n; i++ {
		if name := c.str(); keep {
			v.Columns[i] = name
		}
	}
	if !keep {
		v.fwd = forwarded{b: body[tuplesAt : tail+c.off], ragged: flags&resultRagged != 0}
	}
	n = c.count(6)
	if keep {
		v.Decisions = take(&st.decisions, n)
	}
	for i := 0; i < n; i++ {
		d := DecisionMsg{Object: c.str(), Site: c.str(), Yield: c.varint()}
		verdict, dflags := c.byte(), c.byte()
		if int(verdict) >= len(decisionNames) || dflags&^(decisionForced|decisionFailed) != 0 {
			c.fail()
			break
		}
		d.Decision = decisionNames[verdict]
		d.Forced, d.Failed = dflags&decisionForced != 0, dflags&decisionFailed != 0
		d.Reason = c.str()
		if keep {
			v.Decisions[i] = d
		}
	}
	if keep {
		v.SiteErrors = c.siteErrors(&st.siteErrs)
		v.TransportErrors = c.siteErrors(&st.transportErrs)
	} else {
		c.siteErrors(nil)
		c.siteErrors(nil)
	}
	if err := c.done(); err != nil {
		return ResultMsg{}, err
	}
	return v, nil
}

// siteErrors reads a list of site errors into *buf, or past it when buf
// is nil (a check).
func (c *cursor) siteErrors(buf *[]SiteErrorMsg) []SiteErrorMsg {
	n := c.count(3)
	var errs []SiteErrorMsg
	if buf != nil {
		errs = take(buf, n)
	}
	for i := 0; i < n; i++ {
		e := SiteErrorMsg{Site: c.str(), Error: c.str(), LostBytes: c.varint()}
		if buf != nil {
			errs[i] = e
		}
	}
	return errs
}

// ErrorMsg returns a failure message.
type ErrorMsg struct {
	Message string `json:"message"`
}

// FetchMsg asks a node for a whole object.
type FetchMsg struct {
	Object string `json:"object"`
}

// FetchAckMsg acknowledges a fetch with the object's logical size —
// the WAN bytes the transfer represents.
type FetchAckMsg struct {
	Object string `json:"object"`
	Size   int64  `json:"size"`
}

// PingMsg is a health probe (empty payload).
type PingMsg struct{}

// PongMsg answers a probe with the responder's identity.
type PongMsg struct {
	// Site names the answering daemon as its scrapes' Source does:
	// "byproxyd", or "bydbd:<site>" for a node.
	Site string `json:"site,omitempty"`
}

// ScrapeMsg asks a daemon for everything it observes, in one reply
// (ScrapeResultMsg), under one filter. Empty fields match everything.
// Object and Action select ledger records, Outcome and MinUS
// exemplars, and Trace both. Limit caps each list, keeping the most
// recent; ≤ 0 keeps each list's default (DefaultDecisionLimit,
// DefaultExemplarLimit), and each list has its own cap
// (MaxDecisionLimit, MaxExemplarLimit).
type ScrapeMsg struct {
	// Object is an exact object id.
	Object string `json:"object,omitempty"`
	// Action is a decision: "hit", "bypass" or "load".
	Action string `json:"action,omitempty"`
	// Trace is a 16-hex-digit trace id.
	Trace string `json:"trace,omitempty"`
	// Outcome is "slow", "error", "degraded" or "normal".
	Outcome string `json:"outcome,omitempty"`
	// MinUS keeps exemplars at least this slow (microseconds).
	MinUS int64 `json:"min_us,omitempty"`
	Limit int   `json:"limit,omitempty"`
}

// ScrapeResultMsg is what a daemon observes, read at one scrape: its
// registry, and its flight recorder's counts and matching exemplars.
// A proxy also fills its flow accounting and its decision ledger; a
// node leaves them zero. Source names the daemon and
// so its role: "byproxyd" or "bydbd:<site>".
//
// The mediator's parts (Policy, Acct, the cache, Recorded and Records)
// are one reading of the decision plane, taken in
// one hold of its lock, so they agree with each other. Snapshot and the
// transport and flight-recorder counts are read on their own, so a proxy
// that decides while it is scraped can have moved between them and the
// mediator's reading: each satisfies D_A = D_S + D_C on its own.
type ScrapeResultMsg struct {
	Source string `json:"source"`
	// Snapshot is the registry: every counter, gauge and histogram,
	// deterministically ordered.
	Snapshot obs.Snapshot `json:"snapshot"`

	// Policy names the proxy's cache policy ("none" without one), and
	// Granularity is "tables", "columns" or "views".
	Policy      string `json:"policy,omitempty"`
	Granularity string `json:"granularity,omitempty"`
	// Acct is the logical flow accounting (Figure 1).
	Acct core.Accounting `json:"acct"`
	// CacheUsed and CacheCapacity describe the cache in bytes.
	CacheUsed     int64 `json:"cache_used,omitempty"`
	CacheCapacity int64 `json:"cache_capacity,omitempty"`
	// CachedObjects lists cached object ids, sorted and at most
	// MaxStatsCachedObjects of them (only when the policy lists its
	// contents).
	CachedObjects []string `json:"cached_objects,omitempty"`
	// TransportTx/Rx count physical frame bytes the proxy exchanged
	// with database nodes.
	TransportTx int64 `json:"transport_tx,omitempty"`
	TransportRx int64 `json:"transport_rx,omitempty"`

	// Recorded is the number of decisions the ledger ever recorded
	// (records older than its ring have been overwritten), and Records
	// the matching ones, oldest first.
	Recorded uint64                  `json:"recorded,omitempty"`
	Records  []ledger.DecisionRecord `json:"records,omitempty"`

	// Observed counts every finished query the flight recorder saw,
	// Published the exemplars it ever published, and ThresholdUS is its
	// slow-capture threshold. Exemplars are the matching ones, oldest
	// first.
	Observed    uint64               `json:"observed"`
	Published   uint64               `json:"published"`
	ThresholdUS int64                `json:"threshold_us"`
	Exemplars   []flightrec.Exemplar `json:"exemplars,omitempty"`
}
