package wire

import (
	"fmt"
	"net"
	"sync"
	"time"

	"bypassyield/internal/obs"
)

// DefaultPoolSize is the per-site bound on concurrently checked-out
// node connections (and so on idle connections kept for reuse).
const DefaultPoolSize = 8

// PoolConfig tunes one site's connection pool.
type PoolConfig struct {
	// MaxActive bounds connections checked out at once; a Get beyond
	// the bound blocks until a connection is returned. ≤ 0 means
	// DefaultPoolSize. Every idle connection was once checked out, and
	// Get claims its slot before it dials, so idle + active ≤ MaxActive.
	MaxActive int
}

func (c PoolConfig) sanitize() PoolConfig {
	if c.MaxActive <= 0 {
		c.MaxActive = DefaultPoolSize
	}
	return c
}

// poolMetrics carries the registry handles shared by every site's
// pool; labels are site names.
type poolMetrics struct {
	active  *obs.GaugeFamily     // wire.pool_active: checked-out conns
	idle    *obs.GaugeFamily     // wire.pool_idle: parked conns
	waits   *obs.CounterFamily   // wire.pool_waits: Gets that blocked on MaxActive
	waitDur *obs.HistogramFamily // wire.pool_wait_us: time blocked per Get
	dials   *obs.CounterFamily   // wire.node_dials
	drops   *obs.CounterFamily   // wire.node_conn_drops
}

// nodeConn is a pooled connection to a node and the reader its replies
// are taken off (frameReader): once the buffer has grown to the widest
// reply, each is read with one Read. A reply's body is the reader's until
// the connection's next exchange, so whoever has the connection checked
// out reads the reply before putting it back.
type nodeConn struct {
	net.Conn
	fr frameReader
}

// pool is a bounded per-site connection pool. Reuse is MRU — the most
// recently returned connection is handed out first, keeping the
// working set small and idle connections cold enough to notice
// staleness early. Concurrent Gets beyond MaxActive block (counted in
// wire.pool_waits) until a connection is returned or discarded, so a
// site's legs self-limit without a global lock.
type pool struct {
	site string
	addr string
	dial func(site, addr string) (net.Conn, error)
	cfg  PoolConfig
	m    poolMetrics
	// activeGauge and idleGauge are m's members for site, which every Get
	// and Put sets, resolved once.
	activeGauge, idleGauge *obs.Gauge

	mu     sync.Mutex
	cond   *sync.Cond
	idle   []*nodeConn // MRU stack: append on Put, pop from the end on Get
	active int         // checked-out connections
	closed bool
}

func newPool(site, addr string, cfg PoolConfig, dial func(site, addr string) (net.Conn, error), m poolMetrics) *pool {
	p := &pool{site: site, addr: addr, dial: dial, cfg: cfg.sanitize(), m: m,
		activeGauge: m.active.Get(site), idleGauge: m.idle.Get(site)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Get checks out a connection, the most recently parked one when any
// is idle. fresh skips — and discards — idle connections: the
// caller just saw a pooled connection fail, so its siblings are
// presumed stale too and the attempt must dial. Blocks while MaxActive
// connections are checked out.
func (p *pool) Get(fresh bool) (*nodeConn, error) {
	p.mu.Lock()
	if p.active >= p.cfg.MaxActive && !p.closed {
		start := time.Now()
		for p.active >= p.cfg.MaxActive && !p.closed {
			p.m.waits.Get(p.site).Add(1)
			p.cond.Wait()
		}
		p.m.waitDur.Get(p.site).Observe(time.Since(start).Microseconds())
	}
	if p.closed {
		p.mu.Unlock()
		return nil, fmt.Errorf("wire: pool %s closed", p.site)
	}
	if fresh {
		p.dropIdleLocked()
	}
	if n := len(p.idle); n > 0 {
		conn := p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.idleGauge.Set(int64(len(p.idle)))
		p.checkoutLocked()
		p.mu.Unlock()
		return conn, nil
	}
	// Reserve the slot before dialing so concurrent Gets cannot
	// overshoot MaxActive while the dial is in flight.
	p.checkoutLocked()
	p.mu.Unlock()
	c, err := p.dial(p.site, p.addr)
	if err != nil {
		p.release()
		return nil, err
	}
	p.m.dials.Get(p.site).Add(1)
	return &nodeConn{Conn: c, fr: newFrameReader()}, nil
}

// checkoutLocked claims one active slot. Caller holds mu.
func (p *pool) checkoutLocked() {
	p.active++
	p.activeGauge.Set(int64(p.active))
}

// release frees one active slot and wakes a waiter.
func (p *pool) release() {
	p.mu.Lock()
	p.active--
	p.activeGauge.Set(int64(p.active))
	p.cond.Signal()
	p.mu.Unlock()
}

// Put returns a healthy connection for reuse. After Close the
// connection is closed instead of parked.
func (p *pool) Put(conn *nodeConn) {
	p.mu.Lock()
	closed := p.closed
	if !closed {
		p.idle = append(p.idle, conn)
		p.idleGauge.Set(int64(len(p.idle)))
	}
	p.active--
	p.activeGauge.Set(int64(p.active))
	p.cond.Signal()
	p.mu.Unlock()
	if closed {
		conn.Close()
	}
}

// Discard closes a checked-out connection after a failure and frees
// its slot.
func (p *pool) Discard(conn *nodeConn) {
	conn.Close()
	p.m.drops.Get(p.site).Add(1)
	p.release()
}

// dropIdleLocked closes every parked connection. Caller holds mu.
func (p *pool) dropIdleLocked() {
	for _, c := range p.idle {
		c.Close()
		p.m.drops.Get(p.site).Add(1)
	}
	p.idle = p.idle[:0]
	p.idleGauge.Set(0)
}

// DropIdle closes every parked connection — the breaker calls it when
// a site trips open, so a recovered site starts from fresh dials
// instead of replaying RPCs into half-dead sockets.
func (p *pool) DropIdle() {
	p.mu.Lock()
	p.dropIdleLocked()
	p.mu.Unlock()
}

// Close drops idle connections and fails all current and future Gets.
// Checked-out connections are closed by their holders via Put/Discard.
func (p *pool) Close() {
	p.mu.Lock()
	p.closed = true
	for _, c := range p.idle {
		c.Close()
	}
	p.idle = nil
	p.idleGauge.Set(0)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Stats reports checked-out and idle connection counts (tests and
// diagnostics).
func (p *pool) Stats() (active, idle int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.active, len(p.idle)
}
