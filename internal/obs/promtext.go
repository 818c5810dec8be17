package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4), deterministically: metric names
// are sanitized to the Prometheus charset, entries keep the snapshot's
// (name, label) order, family labels are emitted under the "label"
// key, and histograms expand to cumulative `_bucket` series plus `_sum`
// and `_count`. Every snapshot of the same
// registry therefore serializes byte-identically modulo values — the
// golden-file test pins the format.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	pw := &promWriter{w: w}

	prev := ""
	for _, c := range s.Counters {
		name := PromName(c.Name)
		if name != prev {
			pw.printf("# TYPE %s counter\n", name)
			prev = name
		}
		pw.sample(name, c.Label, "", fmt.Sprintf("%d", c.Value))
	}
	prev = ""
	for _, g := range s.Gauges {
		name := PromName(g.Name)
		if name != prev {
			pw.printf("# TYPE %s gauge\n", name)
			prev = name
		}
		pw.sample(name, g.Label, "", fmt.Sprintf("%d", g.Value))
	}
	prev = ""
	for _, h := range s.Histograms {
		name := PromName(h.Name)
		if name != prev {
			pw.printf("# TYPE %s histogram\n", name)
			prev = name
		}
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			pw.sample(name+"_bucket", h.Label, fmt.Sprintf("%d", bound), fmt.Sprintf("%d", cum))
		}
		pw.sample(name+"_bucket", h.Label, "+Inf", fmt.Sprintf("%d", h.Count))
		pw.sample(name+"_sum", h.Label, "", fmt.Sprintf("%d", h.Sum))
		pw.sample(name+"_count", h.Label, "", fmt.Sprintf("%d", h.Count))
	}
	return pw.err
}

// promWriter accumulates the first write error so rendering code stays
// linear.
type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// sample writes one sample line, attaching the family label (key
// "label") and/or the histogram bucket bound (key "le") when present.
func (p *promWriter) sample(name, label, le, value string) {
	var b strings.Builder
	b.WriteString(name)
	if label != "" || le != "" {
		b.WriteByte('{')
		if label != "" {
			b.WriteString(`label="`)
			b.WriteString(promEscape(label))
			b.WriteByte('"')
			if le != "" {
				b.WriteByte(',')
			}
		}
		if le != "" {
			b.WriteString(`le="`)
			b.WriteString(le)
			b.WriteByte('"')
		}
		b.WriteByte('}')
	}
	p.printf("%s %s\n", b.String(), value)
}

// PromName sanitizes a registry metric name ("wire.rpc_latency_us")
// into the Prometheus name charset [a-zA-Z_:][a-zA-Z0-9_:]*
// ("wire_rpc_latency_us").
func PromName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format:
// backslash, double quote, and newline.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
