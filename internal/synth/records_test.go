package synth

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
)

// TestScenarioRecordsArePinned holds what each canned scenario sends at
// its own seed and a time scale of 10 (`by synth -time-scale 10`): a
// SHA-256 digest over every record's sequence number, arrival offset,
// class and statement, in the order Ops returns them. A change to the
// schedule, to the tenants' streams or to how a record carries them
// moves a digest; so does a replay loop fed other statements or other
// intended times.
func TestScenarioRecordsArePinned(t *testing.T) {
	want := map[string]string{
		"diurnal":           "8f86b33b08b7e206aa42d0f79f990908eae7b4b38a14e74e769ac4f68adb6d97",
		"multi-tenant-skew": "cf66bbd6620e0383a46f0fe7a127aff6a86ede29f15a81d5525a6cf6f25d5938",
		"rampx4":            "632a37bcfee2515f9f370b9b38d8f6fc40ebb2b69ab3f5f3a104681be9fc8c38",
		"steady":            "57af65b377149f8fc5fabf3c3bf37e2ce587922a4245c06d80ba56f37b002d44",
	}
	for _, name := range CannedNames() {
		sc, err := Canned(name)
		if err != nil {
			t.Fatal(err)
		}
		sc.Scale(10, 1)
		arrivals, err := Schedule(sc)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := Ops(sc, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for i, r := range recs {
			fmt.Fprintf(h, "%d\t%d\t%s\t%s\n", seqOf(r, i), int64(r.At), r.Class, r.SQL)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[name] {
			t.Errorf("%s: %d records digest to %s, want %s", name, len(recs), got, want[name])
		}
	}
}

// seqOf is rec's Seq, or its 1-based position i+1 when rec's type
// carries no Seq field.
func seqOf(rec any, i int) int64 {
	if f := reflect.ValueOf(rec).FieldByName("Seq"); f.IsValid() {
		return f.Int()
	}
	return int64(i + 1)
}
