package sqlparse

import (
	"reflect"
	"testing"
)

// FuzzParse checks four properties on arbitrary input: the parser
// never panics, any statement it accepts round-trips — String()
// re-parses to an equal AST — and renders byte for byte as the fmt-based
// reference printer (refString) does, and a Parser that has parsed
// another statement (a seed picked by the input's length, so that an
// input fails alone) and been scrambled accepts, refuses and parses it
// exactly as a new one does. `go test` exercises the seed corpus; `make
// fuzz-smoke` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"select ra, dec from photoobj where ra between 10 and 20",
		"select p.objID, s.z as redshift from SpecObj s, PhotoObj p where p.ObjID = s.ObjID",
		"select top 10 * from t where a <> -1.5e3",
		"select count(*), avg(x) from t group by k",
		"select x from t order by x desc",
		"select a from t where a = 1 and b < 2 and c between 3 and 4",
		"",
		"select",
		"select * from",
		"séłèçt * from t",
		"select a from t where a = 'str'",
		"select (((((((( from t",
		"select a fromt twherea=1",
		"select p.ra as r, dec as d from photoobj p",
		"select count(*) as n, avg(p.z) as mean_z, max(z) from specobj p group by p.class",
		"select top 250 p.objid, s.z from specobj s, photoobj p where p.objid = s.objid and s.zconf > 0.35 order by s.z desc",
		"select top 1 x from t order by x",
		"select a from t where a between -1e21 and 1e21 and b > 1e-07 and c < -0 and d = 1.5e300 and e <> -2.5e-300",
		"select a from t where a = -0.0 and b between -0 and 0",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		var reused Parser
		reused.Parse(seeds[len(sql)%len(seeds)])
		reused.Scramble()
		inReused, rerr := reused.Parse(sql)
		if (err == nil) != (rerr == nil) || err != nil && err.Error() != rerr.Error() {
			t.Fatalf("%q: a new parser says %v, a reused one %v", sql, err, rerr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if !reflect.DeepEqual(stmt, inReused) || stmt.String() != inReused.String() {
			t.Fatalf("%q: a new parser reads %q, a reused one %q", sql, stmt, inReused)
		}
		rendered := stmt.String()
		if ref := refString(stmt); rendered != ref {
			t.Fatalf("%q: String renders %q, the reference printer %q", sql, rendered, ref)
		}
		again, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not re-parse: %v", sql, rendered, err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("round-trip mismatch:\n input: %q\n rendered: %q", sql, rendered)
		}
	})
}
