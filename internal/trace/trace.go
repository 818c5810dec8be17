// Package trace defines the on-disk workload trace format: one JSON
// record per line, each holding a query's SQL, its class tag, its total
// yield, its decomposed per-object accesses and, to be replayed open
// loop, its arrival offset. The workload generator, the scenario
// synthesizer, the analyzers, the simulator and the replayer share it.
package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bypassyield/internal/core"
	"bypassyield/internal/obs"
)

// Access is a per-object share of a query's yield.
type Access struct {
	// Object is the cacheable object's identifier
	// (release/table[.column]).
	Object string `json:"object"`
	// Yield is this object's share of the query yield, in bytes.
	Yield int64 `json:"yield"`
}

// Record is one query of a workload trace.
type Record struct {
	// Seq is the 1-based position in the trace.
	Seq int64 `json:"seq"`
	// At is the arrival offset from the start of a replay. A trace
	// whose records all have none is replayed closed loop.
	At time.Duration `json:"at,omitempty"`
	// SQL is the statement text.
	SQL string `json:"sql,omitempty"`
	// Class tags the query class (range, spatial, identity, join,
	// aggregate, log, ...), used by the workload analyzers.
	Class string `json:"class,omitempty"`
	// Yield is the query's total result size in bytes.
	Yield int64 `json:"yield"`
	// Accesses decomposes the yield across referenced objects.
	Accesses []Access `json:"accesses"`
}

// Write streams records as JSON lines.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read parses JSON-line records until EOF (obs.ReadJSONL: blank lines
// are skipped, a malformed line is an error naming its position).
func Read(r io.Reader) ([]Record, error) {
	recs, err := obs.ReadJSONL[Record](r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return recs, nil
}

// WriteFile writes records to a file, creating or truncating it.
// Paths ending in ".gz" are gzip-compressed transparently.
func WriteFile(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := Write(w, recs); err != nil {
		f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ReadFile reads all records from a file, transparently decompressing
// ".gz" paths.
func ReadFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	return Read(r)
}

// ClassLog tags queries against the query logs themselves; the paper
// removes these in preprocessing ("removing queries that query the
// logs themselves").
const ClassLog = "log"

// Preprocess drops log-self queries, following the paper's trace
// preparation. Sequence numbers are preserved (time is relative to
// the original stream).
func Preprocess(recs []Record) []Record {
	out := make([]Record, 0, len(recs))
	for _, r := range recs {
		if r.Class == ClassLog {
			continue
		}
		out = append(out, r)
	}
	return out
}

// Requests converts records to simulator requests.
func Requests(recs []Record) []core.Request {
	reqs := make([]core.Request, len(recs))
	for i, r := range recs {
		req := core.Request{Seq: r.Seq, SQL: r.SQL}
		req.Accesses = make([]core.Access, len(r.Accesses))
		for j, a := range r.Accesses {
			req.Accesses[j] = core.Access{Object: core.ObjectID(a.Object), Yield: a.Yield}
		}
		reqs[i] = req
	}
	return reqs
}

// SequenceCost returns the total yield of the trace — the paper's
// "sequence cost", the WAN traffic without any caching on a uniform
// network.
func SequenceCost(recs []Record) int64 {
	var total int64
	for _, r := range recs {
		total += r.Yield
	}
	return total
}

// Validate checks internal consistency: increasing positive sequence
// numbers, non-decreasing non-negative arrival offsets, non-negative
// yields, and per-record access sums equal to the record yield.
func Validate(recs []Record) error {
	var prev int64
	var prevAt time.Duration
	for i, r := range recs {
		if r.Seq <= prev {
			return fmt.Errorf("trace: record %d: seq %d not increasing (prev %d)", i, r.Seq, prev)
		}
		prev = r.Seq
		if r.At < prevAt {
			return fmt.Errorf("trace: record %d: arrival offset %v before %v", i, r.At, prevAt)
		}
		prevAt = r.At
		if r.Yield < 0 {
			return fmt.Errorf("trace: record %d: negative yield", i)
		}
		var sum int64
		for _, a := range r.Accesses {
			if a.Yield < 0 {
				return fmt.Errorf("trace: record %d: negative access yield for %s", i, a.Object)
			}
			sum += a.Yield
		}
		if len(r.Accesses) > 0 && sum != r.Yield {
			return fmt.Errorf("trace: record %d: access yields sum to %d, record yield is %d", i, sum, r.Yield)
		}
	}
	return nil
}
