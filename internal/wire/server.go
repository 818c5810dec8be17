package wire

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"

	"bypassyield/internal/obs"
	"bypassyield/internal/obs/flightrec"
)

// server is what a Proxy and a DBNode share: one listener, an accept
// loop that serves every connection on a goroutine of its own through
// the one frame loop (serveConn), and Close, which stops accepting and
// waits for every goroutine the server counted. The daemon supplies
// only what differs: its name, a connection's session (its answer to a
// query), its answer to a fetch, if it serves them, and to a scrape.
type server struct {
	// name is the daemon's: the Source of its scrapes, the Site of its
	// pongs, and what its refusals and log lines are prefixed with.
	name   string
	reg    *obs.Registry
	flight *flightrec.Recorder
	logf   func(format string, args ...any)
	// wrapConn, when set, is interposed on every accepted connection (the
	// node's chaos hook, SetConnWrapper).
	wrapConn func(net.Conn) net.Conn

	newSession func() session
	fetch      func(FetchMsg) (FetchAckMsg, error) // nil: the daemon serves no fetch
	scrape     func(ScrapeMsg) *ScrapeResultMsg

	// Transport counters, per message type: the frames and bytes the
	// daemon's peers sent it and it sent back. rxByType and txByType are
	// their members by type, resolved at each type's first frame (countFrame),
	// so that a type never sent or received is not in a scrape.
	framesRx, framesTx, bytesRx, bytesTx *obs.CounterFamily
	rxByType, txByType                   [maxMsgType + 1]atomic.Pointer[frameCounters]
	connsOpened, connsClosed             *obs.Counter

	ln net.Listener
	// wg counts the accept loop, every connection's loop and whatever
	// else the daemon starts for the server's lifetime (the proxy's prober).
	wg      sync.WaitGroup
	closing sync.Once
	done    chan struct{} // closed by the first Close
}

func newServer(name string, reg *obs.Registry) *server {
	return &server{
		name:        name,
		reg:         reg,
		logf:        log.Printf,
		framesRx:    reg.CounterFamily("wire.frames_rx"),
		framesTx:    reg.CounterFamily("wire.frames_tx"),
		bytesRx:     reg.CounterFamily("wire.bytes_rx"),
		bytesTx:     reg.CounterFamily("wire.bytes_tx"),
		connsOpened: reg.Counter("wire.client_conns_opened"),
		connsClosed: reg.Counter("wire.client_conns_closed"),
		done:        make(chan struct{}),
	}
}

// frameCounters are one message type's counters in one direction: its
// frames and their bytes.
type frameCounters struct{ frames, bytes *obs.Counter }

// countFrame counts one frame of type t, n bytes on the wire, in byType, whose
// members come from the families frames and bytes at t's first frame.
func countFrame(byType *[maxMsgType + 1]atomic.Pointer[frameCounters], frames, bytes *obs.CounterFamily, t MsgType, n int) {
	c := byType[t].Load()
	if c == nil {
		label := t.String()
		c = &frameCounters{frames: frames.Get(label), bytes: bytes.Get(label)}
		byType[t].Store(c) // a racing first frame stores the same members
	}
	c.frames.Add(1)
	c.bytes.Add(int64(n))
}

// SetLogf replaces the logger (tests silence it).
func (s *server) SetLogf(f func(string, ...any)) { s.logf = f }

// Obs returns the registry the daemon publishes into.
func (s *server) Obs() *obs.Registry { return s.reg }

// Flight returns the daemon's flight recorder.
func (s *server) Flight() *flightrec.Recorder { return s.flight }

// Listen starts accepting on addr ("host:port"; ":0" picks a free
// port) and returns the bound address.
func (s *server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener and waits for in-flight connections.
func (s *server) Close() error {
	s.closing.Do(func() { close(s.done) })
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
			default:
				if !errors.Is(err, net.ErrClosed) {
					s.logf("%s: accept: %v", s.name, err)
				}
			}
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// session is one connection's statement memory: the daemon answers the
// connection's queries in it, one after another.
type session interface {
	// answer answers one query under the trace id the peer sent (zero
	// for none), recording it in fc. The reply is the session's, valid
	// until release.
	answer(sql string, traceID uint64, fc *flightrec.Capture) (*ResultMsg, error)
	// release gives the statement's tuples back once its reply is
	// written.
	release()
}

// releaseSession is where serveConn releases a statement. The wire tests
// replace it to scramble the session first — the statement, its binding
// and its tuples, a relayed reply too — so that anything still reading
// the statement afterwards is caught.
var releaseSession = session.release

// maxKeptStatement bounds what a connection keeps of a statement between
// queries, as frameBufMaxCap bounds what it keeps of a frame: the lists a
// statement is parsed, bound and decided in grow with its text (a
// conjunct of ten bytes is some four hundred in them), so a connection
// that has once served a megabyte of conjuncts starts over from a fresh
// session instead of holding their memory for as long as it lives. The
// workload's statements are a few hundred bytes.
const maxKeptStatement = 4 << 10

// serveConn is the daemons' one frame loop: it serves one connection
// until the peer hangs up, a frame does not read or a reply does not
// write, then closes it. Every frame is counted, every query answered in
// the connection's session and bracketed by a flight-recorder capture,
// and every frame type the daemon does not serve refused with one
// MsgError; the connection serves on after a refusal or a failed query.
func (s *server) serveConn(conn net.Conn) {
	if s.wrapConn != nil {
		conn = s.wrapConn(conn)
	}
	defer conn.Close()
	s.connsOpened.Add(1)
	defer s.connsClosed.Add(1)
	var (
		fr = newFrameReader() // this connection's frames; Decode copies out of it
		q  QueryMsg           // this connection's queries, one at a time
		ss = s.newSession()   // what each is answered in
	)
	for {
		t, body, n, err := fr.next(conn)
		if err != nil {
			return // peer closed, protocol failure or a failed send; drop the conn
		}
		countFrame(&s.rxByType, s.framesRx, s.bytesRx, t, n)
		switch {
		case t == MsgQuery:
			if err := Decode(body, &q); err != nil {
				s.sendErr(conn, err)
				continue
			}
			traceID := obs.ParseID(q.TraceID)
			fc := s.flight.Begin()
			fc.SetQuery(q.SQL, traceID)
			res, err := ss.answer(q.SQL, traceID, fc)
			if err != nil {
				s.sendErr(conn, err)
			} else {
				encStart := fc.Now()
				s.send(conn, MsgResult, res)
				fc.SetEncodeUS(fc.Now() - encStart)
			}
			s.flight.Finish(fc, err)
			// The reply is written and the capture closed: nothing reads
			// the tuples again, and the next execution may have their
			// memory, as the next query has the rest of the session —
			// unless this one was long enough to have stretched it.
			releaseSession(ss)
			if len(q.SQL) > maxKeptStatement {
				ss = s.newSession()
			}
			q = QueryMsg{}
		case t == MsgFetch && s.fetch != nil:
			var f FetchMsg
			if err := Decode(body, &f); err != nil {
				s.sendErr(conn, err)
				continue
			}
			ack, err := s.fetch(f)
			if err != nil {
				s.sendErr(conn, err)
				continue
			}
			s.send(conn, MsgFetchAck, ack)
		case t == MsgScrape:
			var sq ScrapeMsg
			if err := Decode(body, &sq); err != nil {
				s.sendErr(conn, err)
				continue
			}
			s.send(conn, MsgScrapeResult, s.scrape(sq))
		case t == MsgPing:
			s.send(conn, MsgPong, PongMsg{Site: s.name})
		default:
			s.sendErr(conn, fmt.Errorf("%s: unexpected message type %s", s.name, t))
		}
	}
}

// send writes one reply, counting it. The peer is a closed loop waiting
// for exactly one reply, so no failure may be silent: a payload that
// does not encode is answered with a MsgError, and a failed write closes
// the connection, which ends serveConn at its next read.
func (s *server) send(conn net.Conn, t MsgType, payload any) {
	n, err := WriteFrame(conn, t, payload)
	if errors.Is(err, errEncode) {
		t = MsgError
		n, err = WriteFrame(conn, t, ErrorMsg{Message: err.Error()})
	}
	if err != nil {
		conn.Close()
		return
	}
	countFrame(&s.txByType, s.framesTx, s.bytesTx, t, n)
}

// sendErr answers with err as a MsgError.
func (s *server) sendErr(conn net.Conn, err error) {
	s.send(conn, MsgError, ErrorMsg{Message: err.Error()})
}

// checkReply is the one check of a reply a peer sent: a frame of the
// type wanted is decoded into dst, its slices cut from st (a nil dst
// wants the type alone), a MsgError is the peer's error, and any other
// type is an error naming it. Both errors are prefixed with peer, which
// names who replied.
func checkReply(peer string, t MsgType, body []byte, want MsgType, dst any, st *resultStore) error {
	switch t {
	case want:
		if dst == nil {
			return nil
		}
		return decodeInto(body, dst, st)
	case MsgError:
		var e ErrorMsg
		if err := Decode(body, &e); err != nil {
			return err
		}
		return fmt.Errorf("%s: %s", peer, e.Message)
	default:
		return fmt.Errorf("%s: %s reply, want %s", peer, t, want)
	}
}
