package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// JSONL is an append-only log of one JSON object per line, for offline
// audit of daemon runs: byproxyd's -ledger-out decision records and
// both daemons' -exemplar-out flight-recorder exemplars. It is safe for
// concurrent use: a log may be shared.
type JSONL[T any] struct {
	mu  sync.Mutex
	w   io.Writer
	enc *json.Encoder
}

// NewJSONL wraps a writer.
func NewJSONL[T any](w io.Writer) *JSONL[T] {
	return &JSONL[T]{w: w, enc: json.NewEncoder(w)}
}

// Append writes v as one line. Encoding errors are dropped: the log
// must never fail the decision or query it describes.
func (j *JSONL[T]) Append(v T) {
	j.mu.Lock()
	j.enc.Encode(v) //nolint:errcheck
	j.mu.Unlock()
}

// Close closes the underlying writer when it is an io.Closer. Nil-safe.
func (j *JSONL[T]) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if c, ok := j.w.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// ReadJSONL decodes what a JSONL wrote, one value per line. Blank lines
// are skipped; a malformed line is an error naming its position.
func ReadJSONL[T any](r io.Reader) ([]T, error) {
	var out []T
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for line := 1; sc.Scan(); line++ {
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(text, &v); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, v)
	}
	return out, sc.Err()
}
