package main

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"time"

	"bypassyield/internal/wire"
)

// ranged is a numeric flag that the flag package refuses out of its
// range, with an error naming the range: a -scale of 0, which a library
// reads as 1, or a -top of −1, which would slice out of bounds, never
// reaches a subcommand.
type ranged[T int | float64 | time.Duration] struct {
	p   *T
	in  func(T) bool
	rng string
}

func (r ranged[T]) String() string {
	if r.p == nil {
		return ""
	}
	return fmt.Sprint(*r.p)
}

func (r ranged[T]) Set(s string) error {
	var v T
	var err error
	switch p := any(&v).(type) {
	case *int:
		*p, err = strconv.Atoi(s)
	case *float64:
		*p, err = strconv.ParseFloat(s, 64)
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	}
	if err != nil {
		return err
	}
	if !r.in(v) {
		return fmt.Errorf("out of range: want %s", r.rng)
	}
	*r.p = v
	return nil
}

// rangedVar declares a flag like fs.IntVar, fs.Float64Var or
// fs.DurationVar do, for values in accepts; rng names that range.
func rangedVar[T int | float64 | time.Duration](fs *flag.FlagSet, p *T, name string, def T, rng string, in func(T) bool, usage string) {
	*p = def
	fs.Var(ranged[T]{p, in, rng}, name, usage)
}

// topVar declares -top, the length of a ranking.
func topVar(fs *flag.FlagSet, p *int, def int, usage string) {
	rangedVar(fs, p, "top", def, "≥ 0", func(n int) bool { return n >= 0 }, usage)
}

// scaleVar declares -scale, which divides a trace's length and traffic
// target: 1 is the paper's scale.
func scaleVar(fs *flag.FlagSet, p *int) {
	rangedVar(fs, p, "scale", 1, "≥ 1", func(n int) bool { return n >= 1 },
		"divide trace length and traffic targets by this `factor` (1 = paper scale)")
}

// anyDaemon describes an -addr a proxy or a node may answer.
const anyDaemon = "daemon address: a byproxyd's client port or a bydbd's"

// endpoint is the daemon a live subcommand talks to.
type endpoint struct {
	addr    string
	timeout time.Duration
}

// endpointFlags declares -addr, described by what, and -dial-timeout.
func endpointFlags(fs *flag.FlagSet, what string) *endpoint {
	ep := new(endpoint)
	fs.StringVar(&ep.addr, "addr", "localhost:7100", what)
	fs.DurationVar(&ep.timeout, "dial-timeout", wire.DefaultDialTimeout, "connect timeout")
	return ep
}

func (ep *endpoint) dial() (*wire.Client, error) { return wire.DialTimeout(ep.addr, ep.timeout) }

// scrape reads the daemon at addr in one round trip, over a connection
// of its own.
func scrape(addr string, timeout time.Duration, q wire.ScrapeMsg) (*wire.ScrapeResultMsg, error) {
	c, err := wire.DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Scrape(q)
}

// scrapeView is a live view of one daemon: it declares -addr, described
// by what, -dial-timeout and -json, and prints one scrape under q() as
// JSON, or drawn by render.
func scrapeView(fs *flag.FlagSet, what string, q func() wire.ScrapeMsg, render func(io.Writer, *wire.ScrapeResultMsg)) func(env, []string) error {
	ep := endpointFlags(fs, what)
	asJSON := fs.Bool("json", false, "print the scrape as JSON")
	return func(e env, _ []string) error {
		res, err := scrape(ep.addr, ep.timeout, q())
		if err != nil {
			return err
		}
		if *asJSON {
			return writeJSON(e.stdout, res)
		}
		render(e.stdout, res)
		return nil
	}
}
