package obs

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestHTTPTelemetryPlane(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.accesses").Add(3)
	r.Gauge("core.bytes_saved_vs_bypass").Set(2)
	r.Histogram("federation.query_latency_us", []int64{10, 100}).Observe(7)

	srv, err := StartHTTP("127.0.0.1:0", NewHTTPHandler(r.Snapshot))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
	}

	code, ctype, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{"core_accesses 3", "core_bytes_saved_vs_bypass 2", "federation_query_latency_us_bucket"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
	ValidatePrometheusText(t, body)

	if code, _, body := get("/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, _, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _, _ := get("/absent"); code != http.StatusNotFound {
		t.Fatalf("unknown path = %d, want 404", code)
	}

	// Close is idempotent.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var nilSrv *HTTPServer
	if err := nilSrv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestStartHTTPBadAddr(t *testing.T) {
	if _, err := StartHTTP("256.256.256.256:0", http.NewServeMux()); err == nil {
		t.Fatal("bad address should fail to bind")
	}
}
