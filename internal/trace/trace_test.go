package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleRecords() []Record {
	return []Record{
		{Seq: 1, SQL: "select ra from photoobj", Class: "range", Yield: 100,
			Accesses: []Access{{Object: "edr/photoobj.ra", Yield: 100}}},
		{Seq: 2, SQL: "select * from weblog", Class: ClassLog, Yield: 50,
			Accesses: []Access{{Object: "edr/weblog", Yield: 50}}},
		{Seq: 3, SQL: "select z from specobj", Class: "range", Yield: 70,
			Accesses: []Access{{Object: "edr/specobj.z", Yield: 40}, {Object: "edr/specobj.zconf", Yield: 30}}},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	recs := append(sampleRecords(), Record{Seq: 4, At: 1500 * time.Millisecond, SQL: "select 1", Class: "range"})
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatalf("round trip mismatch:\n%v\n%v", recs, got)
	}
}

func TestFileRoundTrip(t *testing.T) {
	recs := sampleRecords()
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatal("file round trip mismatch")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	input := `{"seq":1,"yield":10,"accesses":[{"object":"a","yield":10}]}

{"seq":2,"yield":20,"accesses":[{"object":"b","yield":20}]}
`
	got, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("records = %d, want 2", len(got))
	}
}

func TestReadBadJSON(t *testing.T) {
	if _, err := Read(strings.NewReader("{oops\n")); err == nil {
		t.Fatal("bad JSON should error")
	}
}

func TestReadMissingFile(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("error = %v, want not-exist", err)
	}
}

func TestPreprocessDropsLogQueries(t *testing.T) {
	out := Preprocess(sampleRecords())
	if len(out) != 2 {
		t.Fatalf("records after preprocess = %d, want 2", len(out))
	}
	for _, r := range out {
		if r.Class == ClassLog {
			t.Fatal("log query survived preprocessing")
		}
	}
	// Sequence numbers are preserved, not renumbered.
	if out[1].Seq != 3 {
		t.Fatalf("seq = %d, want 3 (preserved)", out[1].Seq)
	}
}

func TestRequestsConversion(t *testing.T) {
	reqs := Requests(sampleRecords())
	if len(reqs) != 3 {
		t.Fatalf("requests = %d", len(reqs))
	}
	if reqs[2].Seq != 3 || len(reqs[2].Accesses) != 2 {
		t.Fatalf("request = %+v", reqs[2])
	}
	if string(reqs[2].Accesses[1].Object) != "edr/specobj.zconf" {
		t.Fatalf("object = %s", reqs[2].Accesses[1].Object)
	}
}

func TestSequenceCost(t *testing.T) {
	if got := SequenceCost(sampleRecords()); got != 220 {
		t.Fatalf("sequence cost = %d, want 220", got)
	}
}

func TestValidateAcceptsGood(t *testing.T) {
	if err := Validate(sampleRecords()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
	}{
		{"non-increasing seq", []Record{{Seq: 2, Yield: 1}, {Seq: 2, Yield: 1}}},
		{"zero seq", []Record{{Seq: 0, Yield: 1}}},
		{"negative yield", []Record{{Seq: 1, Yield: -1}}},
		{"negative access", []Record{{Seq: 1, Yield: 5, Accesses: []Access{{Object: "a", Yield: -5}}}}},
		{"sum mismatch", []Record{{Seq: 1, Yield: 5, Accesses: []Access{{Object: "a", Yield: 4}}}}},
		{"negative arrival", []Record{{Seq: 1, At: -time.Second}}},
		{"arrival before the previous", []Record{{Seq: 1, At: 2 * time.Second}, {Seq: 2, At: time.Second}}},
		{"zero arrival after a nonzero one", []Record{{Seq: 1, At: time.Second}, {Seq: 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Validate(tc.recs); err == nil {
				t.Fatal("Validate should have failed")
			}
		})
	}
}

func TestGzipFileRoundTrip(t *testing.T) {
	recs := append(sampleRecords(), Record{Seq: 4, At: 1500 * time.Millisecond, SQL: "select 1", Class: "range"})
	path := filepath.Join(t.TempDir(), "trace.jsonl.gz")
	if err := WriteFile(path, recs); err != nil {
		t.Fatal(err)
	}
	// The file must actually be gzip (magic bytes 1f 8b).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("file is not gzip-compressed")
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatal("gzip round trip mismatch")
	}
}

func TestReadFileBadGzip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("corrupt gzip should error")
	}
}
