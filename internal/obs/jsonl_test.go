package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// TestJSONL: a log holds one JSON object per appended value, one per
// line; ReadJSONL takes them back, skips blank lines and names the line
// it cannot decode; Close is nil-safe.
func TestJSONL(t *testing.T) {
	type rec struct {
		Seq  int    `json:"seq"`
		Note string `json:"note,omitempty"`
	}
	var buf bytes.Buffer
	j := NewJSONL[rec](&buf)
	in := []rec{{Seq: 1, Note: "a"}, {Seq: 2}}
	for _, r := range in {
		j.Append(r)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "{\"seq\":1,\"note\":\"a\"}\n{\"seq\":2}\n"; got != want {
		t.Fatalf("log = %q, want %q", got, want)
	}
	back, err := ReadJSONL[rec](strings.NewReader("\n" + buf.String() + "  \n"))
	if err != nil || !reflect.DeepEqual(back, in) {
		t.Fatalf("ReadJSONL = %+v, %v; want %+v", back, err, in)
	}
	if _, err := ReadJSONL[rec](strings.NewReader(buf.String() + "{not json\n")); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("malformed third line: err = %v, want one naming line 3", err)
	}
	var nilLog *JSONL[rec]
	if err := nilLog.Close(); err != nil {
		t.Fatal(err)
	}
}
