package engine

import "testing"

// PoisonReleased makes Result.Release overwrite tuples with NaN before
// it pools their memory, until the test ends: whatever reads a released
// tuple, or is handed pooled memory and does not write all of it, then
// differs from the reference evaluator (exported to the engine_test
// package only; tests that use it do not run in parallel).
func PoisonReleased(tb testing.TB) {
	poisonReleased = true
	tb.Cleanup(func() { poisonReleased = false })
}

// MaxPooledElems is the size above which released memory is dropped.
const MaxPooledElems = maxPooledElems

// TupleCaps returns the sizes of the memory res.Tuples is cut from: the
// cells of its one array and its row headers.
func TupleCaps(res *Result) (flat, rows int) { return cap(res.flat), cap(res.Tuples) }

// DrainTuplePool empties the pool released tuples wait in, leaving what
// a process that has never released a result has.
func DrainTuplePool() {
	for tuplePool.Get() != nil {
	}
}

// DenseColumn names the column of a table that holds i·SampleEvery at
// each row i, which a join on it finds rows in by arithmetic, or returns
// "" for none.
func DenseColumn(db *DB, table string) string {
	td := &db.tables[db.schema.TableIndex(table)]
	if td.dense < 0 {
		return ""
	}
	return td.meta.Columns[td.dense].Name
}

// JoinSides reports how a two-table statement is joined: the FROM table
// whose dense key it joins on by arithmetic (-1 for a hash join), and the
// build side, the smaller selection.
func JoinSides(db *DB, b *Bound) (dense, build int, err error) {
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	jp, err := db.planJoin(sc, b)
	return jp.kt, jp.bt, err
}

// haveAVX2 is whether this CPU runs the between kernel, whatever a test
// has set useAVX2 to since.
var haveAVX2 = useAVX2

// FilterPaths runs fn once on each path filterTable's between arm has:
// the AVX2 kernel, where this CPU runs it, then the Go loop on every
// row. path names the one running (exported to the engine_test package
// only; tests that use it do not run in parallel).
func FilterPaths(fn func(path string)) {
	defer func() { useAVX2 = haveAVX2 }()
	if haveAVX2 {
		useAVX2 = true
		fn("kernel")
	}
	useAVX2 = false
	fn("loop")
}
