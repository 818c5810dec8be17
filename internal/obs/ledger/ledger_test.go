package ledger

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"bypassyield/internal/obs"
)

func rec(obj, action string, yield, wan int64) DecisionRecord {
	return DecisionRecord{
		Object:    obj,
		Action:    action,
		Yield:     yield,
		WANCost:   wan,
		Size:      1000,
		FetchCost: 1000,
	}
}

// write appends recs to l as one batch, each filled into the slot Next
// hands out and the sink flushed after the last, as core.Decider writes
// a query's records.
func write(l *Ledger, recs ...DecisionRecord) {
	for _, r := range recs {
		if slot := l.Next(); slot != nil {
			r.Seq = slot.Seq
			*slot = r
		}
	}
	l.Flush()
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	write(l, rec("o1", "hit", 10, 0)) // must not panic
	l.SetSink(obs.NewJSONL[DecisionRecord](&bytes.Buffer{}).Append)
	if got := l.Snapshot(); got != nil {
		t.Fatalf("nil ledger Snapshot = %v, want nil", got)
	}
	if l.Count() != 0 || l.Cap() != 0 {
		t.Fatalf("nil ledger Count/Cap = %d/%d, want 0/0", l.Count(), l.Cap())
	}
}

func TestLedgerSequenceAndSnapshot(t *testing.T) {
	l := New(8)
	for i := 0; i < 5; i++ {
		write(l, rec("o1", "bypass", int64(i), int64(i)))
	}
	if l.Count() != 5 {
		t.Fatalf("Count = %d, want 5", l.Count())
	}
	recs := l.Snapshot()
	if len(recs) != 5 {
		t.Fatalf("Snapshot len = %d, want 5", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d: Seq = %d, want %d (oldest-first)", i, r.Seq, i+1)
		}
		if r.Yield != int64(i) {
			t.Fatalf("record %d: Yield = %d, want %d", i, r.Yield, i)
		}
	}
}

func TestLedgerRingWrap(t *testing.T) {
	l := New(4)
	for i := 1; i <= 10; i++ {
		write(l, rec("o1", "hit", int64(i), 0))
	}
	recs := l.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("Snapshot len = %d, want 4 (ring capacity)", len(recs))
	}
	// Only the 4 most recent survive, oldest-first: seqs 7..10.
	for i, r := range recs {
		want := uint64(7 + i)
		if r.Seq != want {
			t.Fatalf("record %d: Seq = %d, want %d", i, r.Seq, want)
		}
	}
}

func TestLedgerCapClamp(t *testing.T) {
	l := New(0)
	if l.Cap() != 1 {
		t.Fatalf("Cap = %d, want clamp to 1", l.Cap())
	}
	write(l, rec("a", "hit", 1, 0))
	write(l, rec("b", "hit", 2, 0))
	recs := l.Snapshot()
	if len(recs) != 1 || recs[0].Object != "b" {
		t.Fatalf("Snapshot = %+v, want only the latest record", recs)
	}
}

func TestSelect(t *testing.T) {
	l := New(16)
	if got := l.Select(Query{}); got != nil {
		t.Fatalf("empty ledger selected %+v", got)
	}
	write(l, DecisionRecord{Object: "o1", Action: "bypass", Trace: "aa"})
	write(l, DecisionRecord{Object: "o2", Action: "load", Trace: "aa"})
	write(l, DecisionRecord{Object: "o1", Action: "hit", Trace: "bb"})
	write(l, DecisionRecord{Object: "o1", Action: "hit", Trace: "bb"})

	if got := l.Select(Query{Object: "o1"}); len(got) != 3 {
		t.Fatalf("object filter: %d matches, want 3", len(got))
	}
	if got := l.Select(Query{Action: "hit"}); len(got) != 2 {
		t.Fatalf("action filter: %d matches, want 2", len(got))
	}
	if got := l.Select(Query{Trace: "aa"}); len(got) != 2 {
		t.Fatalf("trace filter: %d matches, want 2", len(got))
	}
	if got := l.Select(Query{Object: "o1", Action: "hit", Trace: "bb"}); len(got) != 2 {
		t.Fatalf("combined filter: %d matches, want 2", len(got))
	}
	got := l.Select(Query{Object: "o1", Limit: 2})
	if len(got) != 2 || got[0].Action != "hit" || got[1].Action != "hit" {
		t.Fatalf("limit filter: %+v, want the 2 most recent o1 records", got)
	}

	// Past the ring's capacity Select sees what Snapshot retains, in the
	// same order, and a limit keeps the newest matches.
	var nilLedger *Ledger
	if got := nilLedger.Select(Query{}); got != nil {
		t.Fatalf("nil ledger selected %+v", got)
	}
	for i := 0; i < 37; i++ {
		write(l, DecisionRecord{Object: fmt.Sprintf("o%d", i%3), Action: "hit"})
	}
	snap := l.Snapshot()
	for _, q := range []Query{{}, {Object: "o1"}, {Object: "o2", Limit: 3}, {Limit: 100}, {Action: "load"}} {
		var want []DecisionRecord
		for i := range snap {
			if q.Match(&snap[i]) {
				want = append(want, snap[i])
			}
		}
		if q.Limit > 0 && len(want) > q.Limit {
			want = want[len(want)-q.Limit:]
		}
		if got := l.Select(q); !reflect.DeepEqual(got, want) {
			t.Fatalf("Select(%+v) = %d records, the snapshot's matches %d", q, len(got), len(want))
		}
	}
}

func TestRegret(t *testing.T) {
	// o1: bypassed 3 times at 400 each (realized WAN 1200) but one
	// fetch costs 1000 — regret 200.
	// o2: loaded once (WAN 1000) then hit for 10 — all-bypass would
	// have paid 500+10=510 < fetch, bound 510, regret 490.
	// o3: one cheap bypass of 50 — bound 50, regret 0.
	recs := []DecisionRecord{
		{Object: "o1", Action: "bypass", Yield: 400, WANCost: 400, Size: 1000, FetchCost: 1000},
		{Object: "o1", Action: "bypass", Yield: 400, WANCost: 400, Size: 1000, FetchCost: 1000},
		{Object: "o1", Action: "bypass", Yield: 400, WANCost: 400, Size: 1000, FetchCost: 1000},
		{Object: "o2", Action: "load", Yield: 500, WANCost: 1000, Size: 1000, FetchCost: 1000},
		{Object: "o2", Action: "hit", Yield: 10, WANCost: 0, Size: 1000, FetchCost: 1000},
		{Object: "o3", Action: "bypass", Yield: 50, WANCost: 50, Size: 1000, FetchCost: 1000},
	}
	regrets := Regret(recs)
	if len(regrets) != 3 {
		t.Fatalf("len = %d, want 3", len(regrets))
	}
	// Sorted by descending regret: o2 (490), o1 (200), o3 (0).
	want := []ObjectRegret{
		{Object: "o2", Accesses: 2, RealizedWAN: 1000, Bound: 510, Regret: 490},
		{Object: "o1", Accesses: 3, RealizedWAN: 1200, Bound: 1000, Regret: 200},
		{Object: "o3", Accesses: 1, RealizedWAN: 50, Bound: 50, Regret: 0},
	}
	for i, w := range want {
		if regrets[i] != w {
			t.Fatalf("regrets[%d] = %+v, want %+v", i, regrets[i], w)
		}
	}
}

func TestRegretNonuniformCost(t *testing.T) {
	// FetchCost 2x size: a hit's bypass-equivalent is yield * f/s.
	recs := []DecisionRecord{
		{Object: "o1", Action: "load", Yield: 100, WANCost: 2000, Size: 1000, FetchCost: 2000},
		{Object: "o1", Action: "hit", Yield: 500, WANCost: 0, Size: 1000, FetchCost: 2000},
	}
	r := Regret(recs)[0]
	// all-bypass = 100*2 + 500*2 = 1200 < fetch 2000 → bound 1200.
	if r.Bound != 1200 {
		t.Fatalf("Bound = %d, want 1200", r.Bound)
	}
	if r.Regret != 2000-1200 {
		t.Fatalf("Regret = %d, want 800", r.Regret)
	}
}

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	l := New(4)
	l.SetSink(obs.NewJSONL[DecisionRecord](&buf).Append)
	// More records than the ring holds: the sink sees all of them.
	for i := 1; i <= 6; i++ {
		write(l, DecisionRecord{T: int64(i), Object: "o1", Action: "bypass", Yield: int64(i * 10)})
	}
	sc := bufio.NewScanner(&buf)
	var n int
	for sc.Scan() {
		var r DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", n+1, err)
		}
		n++
		if r.Seq != uint64(n) || r.Yield != int64(n*10) {
			t.Fatalf("line %d: Seq=%d Yield=%d", n, r.Seq, r.Yield)
		}
		if r.Trace != "" {
			t.Fatalf("untraced record marshaled Trace = %q, want omitted/empty", r.Trace)
		}
	}
	if n != 6 {
		t.Fatalf("sink saw %d records, want 6", n)
	}
}

// sliceSink keeps what a ledger hands its sink, in order.
type sliceSink struct{ recs []DecisionRecord }

func (s *sliceSink) Record(r DecisionRecord) { s.recs = append(s.recs, r) }

// TestAppendIsRecordInBatches: appending batches through Next and one
// Flush — empty, short, and longer than the ring — leaves the ring, the
// count and the sink exactly as batches of one record each do, and costs
// no allocation, however often a batch is written.
func TestAppendIsRecordInBatches(t *testing.T) {
	one, batched := New(8), New(8)
	oneSink, batchedSink := &sliceSink{}, &sliceSink{}
	one.SetSink(oneSink.Record)
	batched.SetSink(batchedSink.Record)
	write(nil, rec("o", "hit", 1, 0)) // must not panic
	next := int64(0)
	for _, n := range []int{0, 1, 3, 0, 5, 20, 2} {
		batch := make([]DecisionRecord, n)
		for i := range batch {
			next++
			batch[i] = rec("o", "bypass", next, next)
			write(one, batch[i])
		}
		write(batched, batch...)
		if one.Count() != batched.Count() {
			t.Fatalf("after a batch of %d: Count %d, recorded one by one %d", n, batched.Count(), one.Count())
		}
		got, want := batched.Snapshot(), one.Snapshot()
		if len(got) != len(want) {
			t.Fatalf("after a batch of %d: ring holds %d records, one by one %d", n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("after a batch of %d: ring[%d] = %+v, one by one %+v", n, i, got[i], want[i])
			}
		}
	}
	if len(batchedSink.recs) != len(oneSink.recs) {
		t.Fatalf("sink saw %d records, one by one %d", len(batchedSink.recs), len(oneSink.recs))
	}
	for i, r := range batchedSink.recs {
		if r != oneSink.recs[i] || r.Seq != uint64(i+1) {
			t.Fatalf("sink record %d = %+v, one by one %+v", i, r, oneSink.recs[i])
		}
	}
	quiet := New(64)
	batch := make([]DecisionRecord, 17) // the caller's, before and after: appended again and again
	if allocs := testing.AllocsPerRun(100, func() { write(quiet, batch...) }); allocs != 0 {
		t.Fatalf("a batch of 17 allocates %.1f times, want 0", allocs)
	}
}

// TestAppendCopiesIn: the ring holds records by value. Next hands out a
// slot zeroed but for its Seq, whatever it held before; what a writer
// fills a slot from is not retained; and a snapshot is a copy the
// ledger's later batches do not reach.
func TestAppendCopiesIn(t *testing.T) {
	l := New(2)
	batch := []DecisionRecord{rec("a", "hit", 1, 0), rec("b", "load", 2, 1000)}
	write(l, batch...)
	first := l.Snapshot()
	batch[0].Object = "changed"
	if got := l.Snapshot(); len(got) != 2 || got[0].Object != "a" || got[1].Object != "b" {
		t.Fatalf("changing what the ring was filled from changed the ring: %+v", got)
	}
	slot := l.Next() // the oldest record's slot, a's
	if *slot != (DecisionRecord{Seq: 3}) {
		t.Fatalf("Next handed out %+v, want a slot zeroed but for Seq 3", *slot)
	}
	slot.Object = "c"
	l.Flush()
	if len(first) != 2 || first[0].Object != "a" || first[1].Object != "b" {
		t.Fatalf("a later batch changed an earlier snapshot: %+v", first)
	}
	if got := l.Snapshot(); len(got) != 2 || got[0].Object != "b" || got[1].Object != "c" || got[1].Seq != 3 {
		t.Fatalf("ring after the second batch: %+v", got)
	}
}

// TestAppendWrapsTheRing: batches that cross the end of the ring, and
// one longer than the ring, leave exactly the last Cap records, oldest
// first, whole.
func TestAppendWrapsTheRing(t *testing.T) {
	l := New(5)
	next := int64(0)
	for _, n := range []int{3, 4, 1, 5, 13, 2} {
		batch := make([]DecisionRecord, n)
		for i := range batch {
			next++
			batch[i] = DecisionRecord{T: next, Yield: next * 10, Object: "o", Action: "hit"}
		}
		write(l, batch...)
		got := l.Snapshot()
		want := int(min(next, 5))
		if len(got) != want || l.Count() != uint64(next) {
			t.Fatalf("after %d records: %d retained of %d counted, want %d", next, len(got), l.Count(), want)
		}
		for i, r := range got {
			seq := uint64(next) - uint64(want) + uint64(i) + 1
			if r.Seq != seq || r.T != int64(seq) || r.Yield != int64(seq)*10 {
				t.Fatalf("after %d records: ring[%d] = %+v, want record %d", next, i, r, seq)
			}
		}
	}
}
