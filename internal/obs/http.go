package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
)

// NewHTTPHandler builds the daemon telemetry plane:
//
//	/metrics       Prometheus text exposition of snap()
//	/healthz       liveness ("ok")
//	/debug/pprof/  net/http/pprof profiles (heap, goroutine, cpu, ...)
//
// The pprof handlers are wired onto the returned mux explicitly so the
// daemon never exposes them on http.DefaultServeMux.
func NewHTTPHandler(snap func() Snapshot) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap().WritePrometheus(w) //nolint:errcheck // client went away
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// HTTPServer is a running telemetry listener with its bound address.
type HTTPServer struct {
	// Addr is the bound listen address (useful with ":0").
	Addr string

	srv  *http.Server
	ln   net.Listener
	once sync.Once
	err  error
}

// StartHTTP binds addr and serves h on it in a background goroutine.
// Close the returned server on shutdown.
func StartHTTP(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &HTTPServer{Addr: ln.Addr().String(), srv: &http.Server{Handler: h}, ln: ln}
	go s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	return s, nil
}

// Close stops the listener and in-flight handlers; the address is
// free when it returns. Safe to call more than once.
func (s *HTTPServer) Close() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() {
		s.err = s.srv.Close()
		// Before Serve has taken ln, srv.Close does not close it, and
		// Serve would only on its goroutine.
		s.ln.Close()
	})
	return s.err
}
