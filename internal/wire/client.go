package wire

import (
	"net"
	"time"

	"bypassyield/internal/obs"
)

// DefaultDialTimeout bounds connection establishment. A black-holed
// listener must fail a client in seconds, not leave it hanging on the
// kernel's multi-minute TCP handshake timeout.
const DefaultDialTimeout = 5 * time.Second

// Client is a synchronous connection to a proxy (or directly to a
// database node for diagnostics), for one caller at a time.
type Client struct {
	conn net.Conn
	fr   frameReader // reply frames are read here; decoding copies out of it

	// The query in flight and its reply: Query returns &res, whose
	// tuples, columns, decisions and error lists are cut from store and
	// whose strings are store's names, so a reply like the ones before it
	// costs no allocation.
	query QueryMsg
	res   ResultMsg
	store resultStore
}

// Dial connects to a proxy at addr, bounded by DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, DefaultDialTimeout)
}

// DialTimeout connects to a proxy at addr, giving up after timeout
// (≤ 0 means no bound).
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (a custom dialer, a
// fault-injected conn in tests) in a Client. The Client owns the conn
// and closes it.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, fr: newFrameReader(), store: resultStore{names: names{}}}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Query sends SQL and returns the result. The result is the Client's:
// it is valid until the next call on this Client, which decodes the
// next reply into the same memory. A caller that keeps a result across
// calls copies what it keeps.
func (c *Client) Query(sql string) (*ResultMsg, error) {
	return c.QueryTraced(sql, 0)
}

// QueryTraced is Query under a trace id the caller minted (obs.NewID):
// the query's ledger records and the exemplars the proxy and the nodes
// keep of it carry that id, so a driver can look its own statement up.
// A zero id is equivalent to Query, and the result is valid as long as
// Query's is.
func (c *Client) QueryTraced(sql string, traceID uint64) (*ResultMsg, error) {
	c.query = QueryMsg{SQL: sql, TraceID: obs.FormatID(traceID)}
	if err := c.roundTrip(MsgQuery, &c.query, MsgResult, &c.res); err != nil {
		return nil, err
	}
	return &c.res, nil
}

// roundTrip sends one request frame and decodes the expected
// response type into dst, unwrapping server errors.
func (c *Client) roundTrip(req MsgType, payload any, want MsgType, dst any) error {
	if _, err := WriteFrame(c.conn, req, payload); err != nil {
		return err
	}
	return c.reply(want, dst)
}

// reply reads one response frame: roundTrip's second half.
func (c *Client) reply(want MsgType, dst any) error {
	t, body, _, err := c.fr.next(c.conn)
	if err != nil {
		return err
	}
	err = checkReply("wire: server", t, body, want, dst, &c.store)
	if len(body) > frameBufMaxCap {
		// As for fr: an occasional giant reply must not pin its
		// megabytes for as long as the connection lives.
		c.store = resultStore{names: c.store.names}
	}
	return err
}

// Scrape fetches everything a daemon observes in one round trip:
// its metrics, its flight recorder's exemplars and, from a proxy, the
// flow accounting and the decision ledger, filtered by q (see
// ScrapeMsg). Proxies and database nodes both answer.
func (c *Client) Scrape(q ScrapeMsg) (*ScrapeResultMsg, error) {
	var res ScrapeResultMsg
	if err := c.roundTrip(MsgScrape, q, MsgScrapeResult, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Stats is Scrape with no filter.
//
// Deprecated: the frozen bench/ module reads the transport counters
// through it; call Scrape.
func (c *Client) Stats() (*ScrapeResultMsg, error) { return c.Scrape(ScrapeMsg{}) }

// Metrics is Scrape with no filter.
//
// Deprecated: the frozen bench/ module reads the registry through it;
// call Scrape.
func (c *Client) Metrics() (*ScrapeResultMsg, error) { return c.Scrape(ScrapeMsg{}) }

// Ping round-trips a health probe (proxies and database nodes both
// answer).
func (c *Client) Ping() (*PongMsg, error) {
	var res PongMsg
	if err := c.roundTrip(MsgPing, PingMsg{}, MsgPong, &res); err != nil {
		return nil, err
	}
	return &res, nil
}
