package engine_test

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"bypassyield/internal/catalog"
	"bypassyield/internal/engine"
	"bypassyield/internal/obs"
	"bypassyield/internal/sqlparse"
	"bypassyield/internal/workload"
)

// executeSeeds are one or two statements of each class the workload
// generator emits, and the aggregates over * that Bind must refuse
// (sum(*) once reached the executor with no column and crashed it).
var executeSeeds = []string{
	"select psfmagerr_u, dec, rerun, objid, modelmag_u from photoobj where objid = 590150",                                                                                     // identity
	"select objid, ra, dec, ra, modelmagerr_i from photoobj where ra between 196.7513 and 212.6328 and dec between 43.6837 and 51.6244",                                        // spatial
	"select * from photoobj where ra between 200.6654 and 206.3543 and dec between 47.6577 and 50.5022",                                                                        // spatial
	"select objid, dec, veldisp, plate, zstatus, ra from specobj where ra between 93.3965 and 128.5869 and dec < 19.5463",                                                      // range
	"select neighborobjid, distance, objid, neighbortype from neighbors where distance between 0.0413 and 0.0421",                                                              // range
	"select * from photoobj where dec between -42.6933 and 68.9242",                                                                                                            // bulk
	"select p.objid, p.ra, p.dec, p.petromag_i, s.z as redshift from specobj s, photoobj p where p.objid = s.objid and s.specclass = 1 and s.zconf > 0.4 and p.petromag_i > 2", // join
	"select count(*), avg(petromag_r) from photoobj where ra between 179.5083 and 238.1015",                                                                                    // aggregate
	"select specclass, count(*), avg(z), min(z), max(z), sum(z) from specobj group by specclass",
	"select top 5 objid, ra from photoobj where ra > dec order by ra desc",
	"select n.distance, p.ra from neighbors n, photoobj p where n.objid = p.objid and n.neighborobjid = p.objid and n.distance <= p.ra",
	"select sum(*) from photoobj",
	"select avg(*), count(*) from specobj where z < 1",
	"select specclass, min(*) from specobj group by specclass",
	"select max(*) from photoobj p, specobj s where p.objid = s.objid",
	// objid joins, photoobj's objid dense, with each table first in FROM
	// and photoobj built and probed.
	"select p.objid, p.ra, n.neighborobjid, n.distance from photoobj p, neighbors n where p.objid = n.objid and p.ra between 100 and 200",
	"select n.distance, p.dec from neighbors n, photoobj p where n.objid = p.objid",
	"select s.z, p.objid from photoobj p, specobj s where s.objid = p.objid and s.z < 3",
	"select top 4 p.type, s.z from specobj s, photoobj p where p.objid = s.objid order by p.type",
}

// checkExecute is the property: parse → bind → execute never panics,
// fails only with a parse, bind or execution error, on success returns
// what the reference evaluator returns, and does all of that alike in
// memory of its own and in memory another statement has been through
// (executeReused); and SizeInto, in such memory, fails alike or gives
// the same result without tuples. It reports whether the statement got
// as far as the executor.
func checkExecute(t *testing.T, db *engine.DB, sql string) bool {
	t.Helper()
	stmt, res, err := executeFresh(db, sql)
	if again, rerr := executeReused(db, sql, false); !sameOutcome(res, err, again, rerr) {
		t.Fatalf("%q: in memory of its own %+v, %v; in reused memory %+v, %v", sql, res, err, again, rerr)
	}
	var sizes *engine.Result
	if res != nil {
		sizes = &engine.Result{Columns: res.Columns, Rows: res.Rows, Bytes: res.Bytes, SampleMatches: res.SampleMatches}
	}
	if sized, serr := executeReused(db, sql, true); !sameOutcome(sizes, err, sized, serr) {
		t.Fatalf("%q: executed %+v, %v; sized in reused memory %+v, %v", sql, res, err, sized, serr)
	}
	var (
		se *sqlparse.SyntaxError
		be *engine.BindError
		ee *engine.ExecError
	)
	if stmt == nil {
		if !errors.As(err, &se) {
			t.Fatalf("Parse(%q) failed with a %T: %v", sql, err, err)
		}
		return false
	}
	if errors.As(err, &be) {
		return false
	}
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("Execute(%q) failed with a %T: %v", sql, err, err)
	}
	if err := againstReference(db, stmt); err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return true
}

// executeFresh is the allocating path: Parse, then Execute. stmt is nil
// when sql does not parse.
func executeFresh(db *engine.DB, sql string) (stmt *sqlparse.SelectStmt, res *engine.Result, err error) {
	if stmt, err = sqlparse.Parse(sql); err != nil {
		return nil, nil, err
	}
	res, err = db.Execute(stmt)
	return stmt, res, err
}

// executeReused is the path of a serving connection: one Parser, one
// Bound and one Result, which have first been through another statement
// — a seed picked by sql's length, so that an input fails alone — and
// been scrambled. sized runs sql through SizeInto instead of ExecuteInto,
// over a Result that still holds the seed's tuples. The result is a copy
// (nil Tuples stay nil): the memory is released.
func executeReused(db *engine.DB, sql string, sized bool) (*engine.Result, error) {
	var (
		parser sqlparse.Parser
		bound  engine.Bound
		result engine.Result
	)
	run := func(sql string, into func(*engine.Result, *engine.Bound) error) error {
		stmt, err := parser.Parse(sql)
		if err != nil {
			return err
		}
		if err := bound.Rebind(db.Schema(), stmt); err != nil {
			return err
		}
		return into(&result, &bound)
	}
	if err := run(executeSeeds[len(sql)%len(executeSeeds)], db.ExecuteInto); err == nil && !sized {
		result.Release()
	}
	parser.Scramble()
	bound.Scramble()
	result.Scramble()
	into := db.ExecuteInto
	if sized {
		into = db.SizeInto
	}
	if err := run(sql, into); err != nil {
		return nil, err
	}
	defer result.Release()
	kept := &engine.Result{Columns: append([]string(nil), result.Columns...), Rows: result.Rows, Bytes: result.Bytes, SampleMatches: result.SampleMatches}
	if result.Tuples != nil {
		kept.Tuples = make([][]float64, 0, len(result.Tuples))
	}
	for _, tuple := range result.Tuples {
		kept.Tuples = append(kept.Tuples, append([]float64(nil), tuple...))
	}
	return kept, nil
}

// sameOutcome compares two executions of one statement: the same error,
// or the same result bit for bit, nil Tuples where the other's are nil.
func sameOutcome(a *engine.Result, aerr error, b *engine.Result, berr error) bool {
	if aerr != nil || berr != nil {
		return aerr != nil && berr != nil && aerr.Error() == berr.Error()
	}
	if !slices.Equal(a.Columns, b.Columns) || a.Rows != b.Rows || a.Bytes != b.Bytes ||
		a.SampleMatches != b.SampleMatches || len(a.Tuples) != len(b.Tuples) || (a.Tuples == nil) != (b.Tuples == nil) {
		return false
	}
	for r := range a.Tuples {
		if !slices.EqualFunc(a.Tuples[r], b.Tuples[r], func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return false
		}
	}
	return true
}

// TestSizeIntoCountsAsExecuteInto: a statement sized moves the engine's
// counters — engine.queries, engine.yield_bytes, engine.rows_scanned —
// exactly as the same statement executed does, over 500 statements of
// the EDR stream, the seeds that bind and statements that fail in the
// executor (a refused mix of aggregates and plain columns has scanned
// its table, and counts it). It holds on each path of the first predicate
// pass.
func TestSizeIntoCountsAsExecuteInto(t *testing.T) {
	db := edrDB(t, 1000)
	reg := obs.NewRegistry()
	db.SetObs(reg)
	counters := []*obs.Counter{reg.Counter("engine.queries"), reg.Counter("engine.yield_bytes"), reg.Counter("engine.rows_scanned")}
	moved := func(into func(*engine.Result, *engine.Bound) error, b *engine.Bound) (d [3]int64, err error) {
		for i, c := range counters {
			d[i] = -c.Value()
		}
		err = into(new(engine.Result), b)
		for i, c := range counters {
			d[i] += c.Value()
		}
		return d, err
	}
	stmts := edrStatements(t, workload.Mix{}, 500)
	for _, sql := range slices.Concat(executeSeeds, []string{
		"select ra, count(*) from photoobj where ra < 10",
		"select p.ra from photoobj p, specobj s where p.ra < s.z",
		"select a.ra from photoobj a, photoobj b, photoobj c where a.objid = b.objid",
	}) {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, stmt)
	}
	engine.FilterPaths(func(path string) {
		var sized, failed int
		for _, stmt := range stmts {
			b, err := engine.Bind(db.Schema(), stmt)
			if err != nil {
				continue
			}
			executed, eerr := moved(db.ExecuteInto, b)
			got, serr := moved(db.SizeInto, b)
			if got != executed || (eerr == nil) != (serr == nil) {
				t.Fatalf("%s, %s: sized, the counters moved %v (%v); executed, %v (%v)", path, stmt, got, serr, executed, eerr)
			}
			if serr != nil {
				failed++
			} else {
				sized++
			}
		}
		if failed < 3 || sized < 500 {
			t.Errorf("%s: %d statements sized and %d failed: the list lost its failing statements or its stream", path, sized, failed)
		}
	})
}

// FuzzExecute runs the property on arbitrary text. `go test` runs the
// seeds; `make fuzz-smoke` explores further.
func FuzzExecute(f *testing.F) {
	for _, s := range executeSeeds {
		f.Add(s)
	}
	engine.PoisonReleased(f)
	db := edrDB(f, 50000) // photoobj has 20 rows: the reference evaluator keeps up with the fuzzer
	f.Fuzz(func(t *testing.T, sql string) {
		checkExecute(t, db, sql)
	})
}

// mutate changes one thing about a parsed statement, keeping it a
// statement the grammar can render: names come from the FROM tables'
// own columns, so most mutants still bind.
func mutate(r *rand.Rand, stmt *sqlparse.SelectStmt, s *catalog.Schema) {
	column := func() sqlparse.ColRef {
		tr := stmt.From[r.Intn(len(stmt.From))]
		cols := s.Table(tr.Name).Columns
		ref := sqlparse.ColRef{Column: cols[r.Intn(len(cols))].Name}
		if len(stmt.From) > 1 {
			if ref.Table = tr.Alias; ref.Table == "" {
				ref.Table = tr.Name
			}
		}
		return ref
	}
	ops := []sqlparse.CompareOp{sqlparse.OpEq, sqlparse.OpNotEq, sqlparse.OpLt, sqlparse.OpLe, sqlparse.OpGt, sqlparse.OpGe}
	aggs := []sqlparse.AggFunc{sqlparse.AggNone, sqlparse.AggCount, sqlparse.AggSum, sqlparse.AggAvg, sqlparse.AggMin, sqlparse.AggMax}
	item := &stmt.Items[r.Intn(len(stmt.Items))]
	var cond *sqlparse.Condition
	if len(stmt.Where) > 0 {
		cond = &stmt.Where[r.Intn(len(stmt.Where))]
	}
	switch r.Intn(12) {
	case 0:
		*item = sqlparse.SelectItem{Col: column()}
	case 1:
		*item = sqlparse.SelectItem{Agg: aggs[r.Intn(len(aggs))], Col: column()}
	case 2:
		item.Agg, item.Star = aggs[r.Intn(len(aggs))], r.Intn(4) == 0
	case 3:
		stmt.Top = []int64{0, 1, 3, 100000}[r.Intn(4)]
	case 4:
		if stmt.OrderBy = nil; r.Intn(3) > 0 {
			stmt.OrderBy = &sqlparse.OrderSpec{Col: item.Col, Desc: r.Intn(2) == 0}
		}
	case 5:
		if stmt.GroupBy = nil; r.Intn(3) > 0 {
			stmt.GroupBy = &item.Col
		}
	case 6:
		stmt.Where = append(stmt.Where, sqlparse.Condition{Left: column(), Op: ops[r.Intn(len(ops))], Value: float64(r.Intn(400) - 100)})
	case 7:
		right := column()
		stmt.Where = append(stmt.Where, sqlparse.Condition{Left: column(), Op: ops[r.Intn(len(ops))], RightCol: &right})
	case 8:
		if len(stmt.From) == 2 {
			stmt.From[0], stmt.From[1] = stmt.From[1], stmt.From[0]
		}
	case 9:
		if cond != nil {
			cond.Op = ops[r.Intn(len(ops))]
		}
	case 10:
		switch {
		case cond == nil || cond.RightCol != nil:
		case cond.Between:
			*cond = sqlparse.Condition{Left: cond.Left, Op: sqlparse.OpLe, Value: cond.Hi}
		default:
			*cond = sqlparse.Condition{Left: cond.Left, Between: true, Lo: cond.Value - float64(r.Intn(50)), Hi: cond.Value + float64(r.Intn(50))}
		}
	default:
		if cond != nil {
			*cond = stmt.Where[len(stmt.Where)-1]
			stmt.Where = stmt.Where[:len(stmt.Where)-1]
		}
	}
}

// TestExecuteMutatedStatements runs FuzzExecute's property over a few
// thousand mutants of its seeds in tier-1: on the hosts this repository
// is built on, the fuzz engine spends most of a 30 s budget at 0
// execs/s. Seeds are mutated as syntax trees and rendered back to text,
// so that what is tested is the engine and not, again, the parser.
func TestExecuteMutatedStatements(t *testing.T) {
	engine.PoisonReleased(t)
	db := edrDB(t, 5000) // 203 photoobj rows: joins match and groups have members
	r := rand.New(rand.NewSource(17))
	executed := 0
	const n = 4000
	for i := 0; i < n; i++ {
		stmt, err := sqlparse.Parse(executeSeeds[r.Intn(len(executeSeeds))])
		if err != nil {
			t.Fatal(err)
		}
		for k := r.Intn(4) + 1; k > 0; k-- {
			mutate(r, stmt, db.Schema())
		}
		if checkExecute(t, db, stmt.String()) {
			executed++
		}
	}
	t.Logf("%d of %d mutated statements reached the executor", executed, n)
	if executed < n/2 {
		t.Errorf("only %d of %d mutated statements reached the executor", executed, n)
	}
}
