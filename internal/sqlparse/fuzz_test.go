package sqlparse_test

import (
	"reflect"
	"testing"

	"bypassyield/internal/sqlparse"
)

// FuzzParse checks five properties on arbitrary input: the parser never
// panics; it accepts and refuses exactly what the map-keyed parser it
// replaced (refParse) did, with the same error at the same offset, and
// reads the same statement; any statement it accepts round-trips —
// String() re-parses to an equal AST — and renders byte for byte as the
// fmt-based reference printer (refString) does; and a Parser that has
// parsed another statement (a seed picked by the input's length, so that
// an input fails alone) and been scrambled accepts, refuses and parses
// it exactly as a new one does; and what Parse returns is the caller's,
// untouched by the next Parse. The seeds after the first nineteen aim
// at the byte classes and keyword tests the table-driven lexer replaced,
// and end with the first 200 statements of each benchmark mix. `go test`
// exercises the seed corpus; `make fuzz-smoke` explores further.
func FuzzParse(f *testing.F) {
	// clobber is parsed after each statement: every list and every
	// pointer of a statement is set in it, to values no seed has.
	const clobber = "select top 7 q.c9, q.c8 from q9 q, r9 r, s9 where q.c9 = r.c9 and r.c8 <> s9.c8 group by q.c7 order by q.c6 desc"
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
		// Case: keywords, identifiers and aggregates in upper and mixed case.
		"SeLeCt Ra, DEC fRoM PhotoObj WhErE Ra BeTwEeN 1 AnD 2 aNd Type = 3",
		"SELECT COUNT(*) AS N, Max(Z) FROM SpecObj S GROUP BY S.Class ORDER BY S.Class DESC",
		"select TOP 5 P.ObjID, p_2.Ra_Err from PHOTOOBJ P, Neighbors p_2 where P.ObjID = p_2.OBJID",
		// Whitespace: tab, LF, CR, VT, FF, and the bytes 0x85 and 0xA0,
		// which unicode.IsSpace counts; 0x1C and 0x00, which it does not.
		"select\ta\nfrom\rt\vwhere\fa = 1",
		"select\x85a\xa0from\xa0t\x85where a\xa0=\x851\xa0",
		"\xa0\x85 select * from t \t\r\n",
		"select a\x1cfrom t",
		"select a from t\x00",
		"select a from t where a =\xc2\xa01",
		// Aggregate names as columns and aliases, and a call spaced out.
		"select count from t",
		"select min as x from t",
		"select count (*) from t",
		"select max max, sum sum from t where avg > 1",
		"select count(*) count, avg(x) as min from t group by sum order by count",
		"select min(ra), max(dec), sum(z), avg(z), count(z) from t",
		"select count(* from t",
		"select sum(x y) from t",
		"select avg.x from avg",
		// Operators.
		"select a from t where a != 1 and b <> 2 and c!=d and e<=f and g>=-1",
		"select a from t where a ! = 1",
		"select a from t where a <>= 1",
		"select a from t where a => 1",
		// Signed and exponent numbers, and what is not quite one.
		"select a from t where a > +1.5 and b < -2e-3 and c = 1E+10 and d = 5. and e = -.5",
		"select a from t where a = .5",
		"select a from t where a = 1e and b = 2",
		"select a from t where a = 1.e5 and b = 7e+ and c = 3E-",
		"select a from t where a = 1e400",
		"select a from t where a between 123456789012345678901234567890 and 0.1234567890123456",
		"select a from t where a = 9007199254740993 and b = 999999999999999 and c = 0.000000000000001",
		"select a from t where a between 967.1563043378493 and 88697725.135730662",
		"select a from t where a = - 1 and b = +",
		"select a from t where a = 1-2",
		// TOP: non-integer, negative, signed, exponent, overflowing.
		"select top 1.5 a from t",
		"select top -3 a from t",
		"select top +3 a from t",
		"select top 1e2 a from t",
		"select top 99999999999999999999 a from t",
		"select top a from t",
		// Trailing input.
		"select a from t;",
		"select a from t order by a desc limit 5",
		"select a from t)",
		"select a from t where a = 1 2",
	}
	// Every reserved word where an alias could stand.
	for _, w := range []string{"select", "from", "where", "and", "between", "as", "top", "group", "order", "by", "asc", "desc"} {
		seeds = append(seeds, "select a "+w+" from t", "select a from t "+w)
	}
	for _, pop := range benchPopulations(f) {
		seeds = append(seeds, pop.sqls[:200]...)
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparse.Parse(sql)
		want, werr := refParse(sql)
		if !reflect.DeepEqual(err, werr) {
			t.Fatalf("%q: Parse says %v, the reference parser %v", sql, err, werr)
		}
		if err == nil && (!reflect.DeepEqual(stmt, want) || stmt.String() != refString(want)) {
			t.Fatalf("%q: Parse reads %q, the reference parser %q", sql, stmt, refString(want))
		}
		var reused sqlparse.Parser
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
		again, err := sqlparse.Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rendering %q does not re-parse: %v", sql, rendered, err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("round-trip mismatch:\n input: %q\n rendered: %q", sql, rendered)
		}
		if _, err := sqlparse.Parse(clobber); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stmt, want) || stmt.String() != rendered {
			t.Fatalf("%q: parsing another statement turned it into %q", sql, stmt)
		}
	})
}
