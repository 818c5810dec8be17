package wire

import (
	"errors"
	"log"
	"net"
	"sync"
)

// server is the listener lifecycle a Proxy and a DBNode share: one
// listener, an accept loop that hands every connection to the role's
// handler on a goroutine of its own, and Close, which stops accepting
// and waits for every goroutine the server counted.
type server struct {
	name   string         // names the role in log lines: "proxy", "dbnode <site>"
	handle func(net.Conn) // the role's: serves one connection, then closes it
	ln     net.Listener
	logf   func(format string, args ...any)

	// wg counts the accept loop, every connection's handler and whatever
	// else the role starts for the server's lifetime (the proxy's prober).
	wg      sync.WaitGroup
	closing sync.Once
	done    chan struct{} // closed by the first Close
}

func newServer(name string, handle func(net.Conn)) *server {
	return &server{name: name, handle: handle, logf: log.Printf, done: make(chan struct{})}
}

// SetLogf replaces the logger (tests silence it).
func (s *server) SetLogf(f func(string, ...any)) { s.logf = f }

// Listen starts accepting on addr ("host:port"; ":0" picks a free
// port) and returns the bound address.
func (s *server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.serve(ln)
	return ln.Addr().String(), nil
}

// serve accepts on ln until Close.
func (s *server) serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
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
			s.handle(conn)
		}()
	}
}
