package wire

import (
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"bypassyield/internal/obs"
)

// testPoolMetrics builds a metrics bundle on a private registry.
func testPoolMetrics() poolMetrics {
	r := obs.NewRegistry()
	return poolMetrics{
		active:  r.GaugeFamily("wire.pool_active"),
		idle:    r.GaugeFamily("wire.pool_idle"),
		waits:   r.CounterFamily("wire.pool_waits"),
		waitDur: r.HistogramFamily("wire.pool_wait_us", obs.DefaultLatencyBuckets()),
		dials:   r.CounterFamily("wire.node_dials"),
		drops:   r.CounterFamily("wire.node_conn_drops"),
	}
}

// pipeDialer fabricates connections without a network: each dial
// returns the client half of a net.Pipe and counts.
func pipeDialer() (dial func(site, addr string) (net.Conn, error), dials *atomic.Int64) {
	dials = &atomic.Int64{}
	dial = func(_, _ string) (net.Conn, error) {
		dials.Add(1)
		c, s := net.Pipe()
		go func() { // keep the server half from blocking writes
			buf := make([]byte, 1024)
			for {
				if _, err := s.Read(buf); err != nil {
					return
				}
			}
		}()
		return c, nil
	}
	return dial, dials
}

func TestPoolReusesMRU(t *testing.T) {
	dial, dials := pipeDialer()
	p := newPool("photo", "x", PoolConfig{MaxActive: 4}, dial, testPoolMetrics())
	defer p.Close()

	c1, err := p.Get(false)
	if err != nil {
		t.Fatalf("first Get: %v", err)
	}
	p.Put(c1)
	c2, err := p.Get(false)
	if err != nil {
		t.Fatalf("second Get: %v", err)
	}
	if c2 != c1 {
		t.Fatal("expected the parked connection back")
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials, want 1", n)
	}
	p.Put(c2)
	if active, idle := p.Stats(); active != 0 || idle != 1 {
		t.Fatalf("stats = (%d active, %d idle), want (0, 1)", active, idle)
	}

	// Every parked connection was once checked out, and Get claims its
	// slot before it dials, so whatever the order of Gets, fresh Gets,
	// Puts and Discards, idle + active never exceeds MaxActive: a Put
	// always has room to park.
	r := rand.New(rand.NewSource(1))
	var out []*nodeConn
	for step := 0; step < 500; step++ {
		switch k := r.Intn(4); {
		case k < 2 && len(out) < 4:
			c, err := p.Get(k == 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, c)
		case len(out) > 0:
			i := r.Intn(len(out))
			c := out[i]
			out = append(out[:i], out[i+1:]...)
			if k == 3 {
				p.Discard(c)
			} else {
				p.Put(c)
			}
		}
		if active, idle := p.Stats(); active != len(out) || active+idle > 4 {
			t.Fatalf("step %d: %d active (%d checked out), %d idle; MaxActive 4", step, active, len(out), idle)
		}
	}
	for _, c := range out {
		p.Put(c)
	}
}

func TestPoolBlocksAtMaxActive(t *testing.T) {
	dial, _ := pipeDialer()
	p := newPool("photo", "x", PoolConfig{MaxActive: 1}, dial, testPoolMetrics())
	defer p.Close()

	c1, err := p.Get(false)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *nodeConn, 1)
	go func() {
		c, err := p.Get(false)
		if err != nil {
			t.Error(err)
		}
		got <- c
	}()
	select {
	case <-got:
		t.Fatal("second Get should block while MaxActive is checked out")
	case <-time.After(50 * time.Millisecond):
	}
	p.Put(c1)
	select {
	case c := <-got:
		p.Put(c)
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never woke after Put")
	}
}

func TestPoolFreshDrainsIdle(t *testing.T) {
	dial, dials := pipeDialer()
	p := newPool("photo", "x", PoolConfig{MaxActive: 4}, dial, testPoolMetrics())
	defer p.Close()

	c1, _ := p.Get(false)
	p.Put(c1)
	c2, err := p.Get(true) // fresh: presume the parked conn stale
	if err != nil {
		t.Fatalf("fresh Get: %v", err)
	}
	if c2 == c1 {
		t.Fatal("fresh Get returned the stale parked connection")
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2", n)
	}
	// The drained conn must be closed: reads on its pair would fail,
	// and a write on the closed conn errors.
	if _, err := c1.Write([]byte("x")); err == nil {
		t.Fatal("drained idle connection should be closed")
	}
	p.Put(c2)
}

func TestPoolCloseFailsGets(t *testing.T) {
	dial, _ := pipeDialer()
	p := newPool("photo", "x", PoolConfig{MaxActive: 1}, dial, testPoolMetrics())
	c1, err := p.Get(false)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := p.Get(false) // blocked on MaxActive
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	p.Close()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("blocked Get should fail when the pool closes")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Get never woke on Close")
	}
	if _, err := p.Get(false); err == nil {
		t.Fatal("Get after Close should fail")
	}
	p.Discard(c1)
}
