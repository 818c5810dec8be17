package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"bypassyield/internal/sqlparse"
)

// Result is the outcome of executing a statement. Cardinality and
// size are logical (scaled by the sampling factor); Tuples carries up
// to Config.MaxResultRows materialized sample rows for display and
// transport — from ExecuteInto, not from SizeInto, whose Result is the
// statement's sizes and column names alone.
type Result struct {
	// Columns names the output columns (alias, aggregate rendering,
	// or qualified column name).
	Columns []string
	// Rows is the logical result cardinality.
	Rows int64
	// Bytes is the logical result size — the query's yield.
	Bytes int64
	// Tuples holds materialized sample rows (bounded). They are cut
	// from one array, which Release gives back. SizeInto leaves it nil.
	Tuples [][]float64
	// SampleMatches is the unscaled number of matching sample rows
	// (for tests of the scaling arithmetic).
	SampleMatches int64

	// flat is the array Tuples is cut from; buf is the pool's holder
	// for it, nil while the memory has never been pooled.
	flat []float64
	buf  *tupleBuf
}

// ExecError reports an execution failure.
type ExecError struct{ Msg string }

func (e *ExecError) Error() string { return "engine: " + e.Msg }

// Execute binds a statement against the database's schema and runs it.
func (db *DB) Execute(stmt *sqlparse.SelectStmt) (*Result, error) {
	b, err := Bind(db.schema, stmt)
	if err != nil {
		return nil, err
	}
	return db.ExecuteBound(b)
}

// ExecuteBound is ExecuteInto a Result of its own, which is the caller's
// to keep.
func (db *DB) ExecuteBound(b *Bound) (*Result, error) {
	res := new(Result)
	if err := db.ExecuteInto(res, b); err != nil {
		return nil, err
	}
	return res, nil
}

// ExecuteInto runs a statement bound against the database's own
// schema (any other Bound is refused: its column positions mean
// nothing here). The execution subset matches the workload: one- and
// two-table statements, conjunctive predicates, equi-joins, aggregates,
// GROUP BY, ORDER BY and TOP.
//
// Bind resolved every name to a position; here each position becomes a
// column slice once, before the first row is read, and every loop
// below — scan, join, sort, group, aggregate, materialize — indexes
// slices and nothing else. Matching rows are a flat []int32 with one
// entry per FROM table per match.
//
// Every vector that lives only as long as the call — selection vectors,
// the join table and its matches, sort keys, the projection list — is
// cut from a pooled scratch and goes back before the call returns. The
// tuples outlive it: they are cut from pooled memory when there is
// some, from exactly sized fresh memory when there is not, and
// Result.Release is how a caller puts them back.
//
// The result is written over res, whatever it held: Columns keeps its
// memory from one statement to the next, so whoever executes into a
// Result again has finished with the last one (released or not: tuples
// never released are ordinary garbage). After an error res means
// nothing.
func (db *DB) ExecuteInto(res *Result, b *Bound) error { return db.evaluate(res, b, true) }

// SizeInto is ExecuteInto without the tuples: the same scan and join,
// the same Columns, Rows, Bytes and SampleMatches, the same errors and
// the same counters, and Tuples nil. What only the tuples need is
// skipped — the ORDER BY sort, the aggregates' values, the projection
// and the tuple memory — so a caller that decides on a statement's
// yield and never reads its rows (Mediator.QueryStmt) does not pay for
// them. What only a count needs is counted: an ungrouped join counts its
// matches instead of collecting them, and a GROUP BY sorts its grouping
// keys alone, not its rows, and counts the runs of equal keys.
func (db *DB) SizeInto(res *Result, b *Bound) error { return db.evaluate(res, b, false) }

// evaluate is ExecuteInto, and SizeInto when tuples is false.
func (db *DB) evaluate(res *Result, b *Bound, tuples bool) error {
	if b.Schema != db.schema {
		return &ExecError{Msg: "statement was bound against another schema"}
	}
	sc := scratchPool.Get().(*scratch)
	defer sc.release()
	var (
		rows    []int32
		matches int
	)
	switch len(b.Tables) {
	case 1:
		rows = db.scan(sc, b, 0)
		matches = len(rows)
	case 2:
		// Sized and ungrouped, a statement needs how many pairs match,
		// not which.
		var err error
		if rows, matches, err = db.join(sc, b, !tuples && b.GroupBy == nil); err != nil {
			return err
		}
	default:
		return &ExecError{Msg: fmt.Sprintf("%d-table statements not supported (max 2)", len(b.Tables))}
	}
	if err := db.finish(sc, b, rows, matches, res, tuples); err != nil {
		return err
	}
	db.queries.Add(1)
	db.yieldBytes.Add(res.Bytes)
	return nil
}

// scratch is the working memory of one ExecuteInto call. The slices
// keep their capacity from one call to the next; their contents mean
// nothing between calls.
type scratch struct {
	sel    [2][]int32 // selection vector per FROM table
	heads  []int32    // hash join table (hashJoin), or bucket starts (denseJoin)
	chain  []joinEntry
	mark   []uint8 // the dense side's selected rows, see denseJoin
	bucket []int32
	pairs  []int32 // join matches
	starts []int   // first match of each group
	proj   []outCol
	sort   rowSort // sort.Stable takes a pointer: this one is already on the heap
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledElems bounds the slices the pools keep, as frameBufMaxCap
// bounds the wire's: a scan at -sample 1 selects among millions of rows,
// and its vectors must not stay pinned for the 1 000-row scans after it.
const maxPooledElems = 1 << 16

// take returns a slice of n elements over *buf, replacing *buf with a
// fresh one when it is too short. The elements are whatever the last
// use left there.
func take[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	return (*buf)[:n]
}

// drop forgets a slice too large to keep.
func drop[T any](buf *[]T) {
	if cap(*buf) > maxPooledElems {
		*buf = nil
	}
}

// release returns the scratch to the pool, without anything oversized
// and without the references to column data it held: a pooled scratch
// must not keep a closed database alive.
func (sc *scratch) release() {
	drop(&sc.sel[0])
	drop(&sc.sel[1])
	drop(&sc.heads)
	drop(&sc.chain)
	drop(&sc.mark)
	drop(&sc.bucket)
	drop(&sc.pairs)
	drop(&sc.starts)
	drop(&sc.sort.keys)
	sc.sort.rows = nil // sel or pairs again: dropped above or not, not kept twice
	clear(sc.proj[:cap(sc.proj)])
	scratchPool.Put(sc)
}

// vals returns the sample values of a bound column (shared; read-only).
func (db *DB) vals(b *Bound, bc *BoundCol) []float64 {
	return db.tables[b.TablePos[bc.TableIdx]].cols[bc.Pos]
}

// cmpOp is a comparison operator as the row loops switch on it
// (sqlparse.CompareOp is a string).
type cmpOp uint8

const (
	opNever cmpOp = iota // an operator the grammar does not have
	opEq
	opNotEq
	opLt
	opLe
	opGt
	opGe
	opBetween // lo <= left <= hi; literal predicates only
)

func cmpOf(op sqlparse.CompareOp) cmpOp {
	switch op {
	case sqlparse.OpEq:
		return opEq
	case sqlparse.OpNotEq:
		return opNotEq
	case sqlparse.OpLt:
		return opLt
	case sqlparse.OpLe:
		return opLe
	case sqlparse.OpGt:
		return opGt
	case sqlparse.OpGe:
		return opGe
	default:
		return opNever
	}
}

func compare(l float64, op cmpOp, r float64) bool {
	switch op {
	case opEq:
		return l == r
	case opNotEq:
		return l != r
	case opLt:
		return l < r
	case opLe:
		return l <= r
	case opGt:
		return l > r
	case opGe:
		return l >= r
	default:
		return false
	}
}

// pred is one WHERE conjunct over column slices: left[i] op right[j],
// or, when right is nil, left[i] against the literal lo (lo and hi for
// opBetween).
type pred struct {
	left, right []float64
	op          cmpOp
	lo, hi      float64
}

func (db *DB) pred(b *Bound, c *BoundCond) pred {
	p := pred{left: db.vals(b, &c.Left), op: cmpOf(c.Cond.Op)}
	switch {
	case c.Right.Col != nil:
		p.right = db.vals(b, &c.Right)
	case c.Cond.Between:
		p.op, p.lo, p.hi = opBetween, c.Cond.Lo, c.Cond.Hi
	default:
		x, inf := c.Cond.Value, math.Inf(1)
		p.lo = x
		switch p.op { // a closed range too, and exactly: a NaN on either side is in none
		case opEq:
			p.op, p.hi = opBetween, x
		case opLe:
			p.op, p.lo, p.hi = opBetween, -inf, x
		case opGe:
			p.op, p.hi = opBetween, inf
		case opLt: // v < x is v <= the double below x
			p.op, p.lo, p.hi = opBetween, -inf, math.Nextafter(x, -inf)
			if x == -inf { // nothing is below −Inf, where Nextafter stays put
				p.lo = inf
			}
		case opGt: // v > x is v >= the double above x
			p.op, p.lo, p.hi = opBetween, math.Nextafter(x, inf), inf
			if x == inf { // nothing is above +Inf
				p.hi = -inf
			}
		}
	}
	return p
}

// mirror rewrites left op right as right op' left.
func (p *pred) mirror() {
	p.left, p.right = p.right, p.left
	p.op = [...]cmpOp{opEq: opEq, opNotEq: opNotEq, opLt: opGt, opLe: opGe, opGt: opLt, opGe: opLe}[p.op]
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// filter compacts the selection vector sel to the rows that satisfy p
// and returns how many there are. Every row is written and the count
// advanced by the comparison's result (b2i is a move of its flag; the
// count never passes the row being read): a branch on it mispredicts at
// the EDR mix's selectivities, 7 ns a row against 2. A literal arrives
// as between or != (pred); two columns as ==, !=, < or <= (orient).
func (p *pred) filter(sel []int32) int {
	p.orient()
	left, right, lo, hi, k := p.left, p.right, p.lo, p.hi, 0
	switch {
	case p.op == opBetween:
		for _, i := range sel {
			sel[k] = i
			k += b2i(left[i] >= lo) & b2i(left[i] <= hi)
		}
	case right == nil && p.op == opNotEq:
		for _, i := range sel {
			sel[k] = i
			k += b2i(left[i] != lo)
		}
	case p.op == opEq:
		for _, i := range sel {
			sel[k] = i
			k += b2i(left[i] == right[i])
		}
	case p.op == opNotEq:
		for _, i := range sel {
			sel[k] = i
			k += b2i(left[i] != right[i])
		}
	case p.op == opLt:
		for _, i := range sel {
			sel[k] = i
			k += b2i(left[i] < right[i])
		}
	case p.op == opLe:
		for _, i := range sel {
			sel[k] = i
			k += b2i(left[i] <= right[i])
		}
	}
	return k
}

// filterTable is filter over every row of the table, the first
// predicate of a scan: it reads the columns in row order, the row
// number being the loop index, writes the rows that satisfy p to the
// front of dst (one entry per row of the table) and returns how many
// there are. On a CPU with AVX2 the between arm, which every literal
// but != takes, runs its blocks of four rows through filterBetweenAVX2
// and its last rows through the loop: the same rows either way.
func (p *pred) filterTable(dst []int32) int {
	p.orient()
	left, right, lo, hi, k := p.left[:len(dst)], p.right, p.lo, p.hi, 0
	if right != nil {
		right = right[:len(left)]
	}
	switch {
	case p.op == opBetween:
		i := 0
		if n := len(left) &^ 3; useAVX2 && n > 0 {
			k, i = filterBetweenAVX2(&dst[0], &left[0], n, lo, hi), n
		}
		for j, v := range left[i:] {
			dst[k] = int32(i + j)
			k += b2i(v >= lo) & b2i(v <= hi)
		}
	case right == nil && p.op == opNotEq:
		for i, v := range left {
			dst[k] = int32(i)
			k += b2i(v != lo)
		}
	case p.op == opEq:
		for i, v := range left {
			dst[k] = int32(i)
			k += b2i(v == right[i])
		}
	case p.op == opNotEq:
		for i, v := range left {
			dst[k] = int32(i)
			k += b2i(v != right[i])
		}
	case p.op == opLt:
		for i, v := range left {
			dst[k] = int32(i)
			k += b2i(v < right[i])
		}
	case p.op == opLe:
		for i, v := range left {
			dst[k] = int32(i)
			k += b2i(v <= right[i])
		}
	}
	return k
}

// orient writes a comparison of two columns with > or >= the other way
// round, so that the filters have four such operators to switch on, not
// six.
func (p *pred) orient() {
	if p.right != nil && (p.op == opGt || p.op == opGe) {
		p.mirror()
	}
}

// scan returns the sample rows of FROM table ti, ascending, that
// satisfy the statement's predicates on that table alone (literal and
// same-table comparisons; cross-table ones belong to the join). One
// predicate at a time: the first reads the whole table into the
// selection vector, the rest compact it. Without a predicate every row
// is selected.
func (db *DB) scan(sc *scratch, b *Bound, ti int) []int32 {
	td := &db.tables[b.TablePos[ti]]
	db.rowsScanned.Add(int64(td.n))
	sel := take(&sc.sel[ti], td.n)
	n := -1 // rows selected, once a predicate has run
	for i := range b.Conds {
		c := &b.Conds[i]
		if c.Left.TableIdx != ti || (c.Right.Col != nil && c.Right.TableIdx != ti) {
			continue
		}
		p := db.pred(b, c)
		if n < 0 {
			n = p.filterTable(sel)
		} else {
			n = p.filter(sel[:n])
		}
	}
	if n >= 0 {
		return sel[:n]
	}
	for r := range sel {
		sel[r] = int32(r)
	}
	return sel
}

// hashKey hashes a join key of one or two values (Fibonacci hashing:
// the caller keeps the high bits).
func hashKey(a, b float64) uint64 {
	// -0 equals +0 and must land where it does; a NaN equals nothing,
	// so where it lands does not matter.
	if a == 0 {
		a = 0
	}
	if b == 0 {
		b = 0
	}
	const phi = 0x9E3779B97F4A7C15
	return (math.Float64bits(a)*phi ^ math.Float64bits(b)) * phi
}

// join evaluates a two-table statement with one or two cross-table
// equalities (cross products are rejected — at sample scale alone they
// can explode) and returns the matching (table 0 row, table 1 row)
// pairs, flat, and how many there are. The smaller side is the build
// side, the other probes it in row order, and a probe row's matches come
// out in build-row order. When count is set the pairs are counted and
// not collected: the slice is nil.
//
// When a key column of either side is dense (tableData.dense) its row is
// arithmetic on the other side's value and denseJoin finds it; otherwise
// the build side is hashed (hashJoin). Both give the same pairs in the
// same order.
func (db *DB) join(sc *scratch, b *Bound, count bool) ([]int32, int, error) {
	jp, err := db.planJoin(sc, b)
	if err != nil || len(jp.sel[jp.bt]) == 0 {
		return nil, 0, err
	}
	var (
		pairs []int32
		n     int
	)
	if jp.kt >= 0 {
		pairs, n = db.denseJoin(sc, &jp, count)
	} else {
		pairs, n = hashJoin(sc, &jp, count)
	}
	return pairs, n, nil
}

// joinPlan is how join evaluates a statement.
type joinPlan struct {
	keys  [2][2][]float64 // [condition][FROM table]; a single key twice
	two   bool            // there are two keys
	extra []pred          // other cross-table comparisons: left reads table 0, right table 1
	sel   [2][]int32      // each FROM table's selected rows
	bt    int             // the build side: the smaller selection, table 0 on a tie
	kt    int             // the FROM table whose key d is dense, -1 for none (a hash join)
	d     int             // the condition whose key is dense
	nk    int             // table kt's rows
}

// planJoin resolves a two-table statement's keys and extra comparisons,
// scans both tables and chooses the build side and, when a key column of
// either side is dense, the dense side: the build side's if it has one,
// because its pairs then need no reordering.
func (db *DB) planJoin(sc *scratch, b *Bound) (joinPlan, error) {
	var (
		jp    = joinPlan{kt: -1}
		cols  [2][2]int // the key columns' positions, as keys
		nkeys int
	)
	for i := range b.Conds {
		c := &b.Conds[i]
		if c.Right.Col == nil || c.Left.TableIdx == c.Right.TableIdx {
			continue
		}
		p := db.pred(b, c)
		pos := [2]int{c.Left.Pos, c.Right.Pos}
		if c.Left.TableIdx == 1 {
			p.mirror()
			pos[0], pos[1] = pos[1], pos[0]
		}
		if p.op != opEq {
			jp.extra = append(jp.extra, p)
			continue
		}
		if nkeys == len(jp.keys) {
			return jp, &ExecError{Msg: "at most two equi-join conditions supported"}
		}
		jp.keys[nkeys], cols[nkeys] = [2][]float64{p.left, p.right}, pos
		nkeys++
	}
	if nkeys == 0 {
		return jp, &ExecError{Msg: "cross products are not supported; add a join condition"}
	}
	if jp.two = nkeys == 2; !jp.two {
		jp.keys[1] = jp.keys[0] // one loop for both shapes: a single key is compared twice
	}

	jp.sel = [2][]int32{db.scan(sc, b, 0), db.scan(sc, b, 1)}
	if len(jp.sel[1]) < len(jp.sel[0]) {
		jp.bt = 1
	}
	for _, kt := range [2]int{jp.bt, 1 - jp.bt} {
		for d := 0; d < nkeys; d++ {
			if td := &db.tables[b.TablePos[kt]]; cols[d][kt] == td.dense {
				jp.kt, jp.d, jp.nk = kt, d, td.n
				return jp, nil
			}
		}
	}
	return jp, nil
}

// denseJoin is join when jp has a dense side: condition jp.d's key
// column of FROM table jp.kt (K, of jp.nk rows) holds i·SampleEvery at
// row i (tableData.dense is checked, not assumed), so the one row of
// K that a value v of the other table (F) can equal is v/SampleEvery
// rounded, clamped to the table, and comparing the keys there settles
// it. The comparison is the hash join's, exact: a NaN, a value off the
// grid or outside the table matches nothing, and -0 matches 0. K's keys
// are distinct, so an F row matches once at most.
//
// K's selected rows are marked, F's selection is walked in row order
// (denseMatch) and each F row's match, its K row or nk for none, written
// to a bucket per row. A second key and the extra comparisons are then
// checked on the matches alone, outside that loop.
//
// When K is the build side, F is the probe side and the matches are the
// pairs in the hash join's order. When K is the probe side, that order
// is K's rows, and each K row's F rows in F order: a stable counting
// sort on the K row puts them there. A count needs neither.
func (db *DB) denseJoin(sc *scratch, jp *joinPlan, count bool) ([]int32, int) {
	keys, d, kt, nk := &jp.keys, jp.d, jp.kt, jp.nk
	ft, fsel := 1-kt, jp.sel[1-kt]
	kd, mark := keys[d][kt], take(&sc.mark, nk)
	clear(mark)
	for _, r := range jp.sel[kt] {
		mark[r] = 1
	}
	bucket := take(&sc.bucket, len(fsel))
	n := denseMatch(bucket, fsel, mark, kd, keys[d][ft], 1/float64(db.cfg.SampleEvery))
	if jp.two || len(jp.extra) > 0 {
		ko, fo := keys[1-d][kt], keys[1-d][ft]
		n = 0
		for j, b := range bucket {
			if b == int32(nk) {
				continue
			}
			var pair [2]int32
			pair[kt], pair[ft] = b, fsel[j]
			m := b2i(ko[b] == fo[pair[ft]])
			for i := range jp.extra {
				x := &jp.extra[i]
				m &= b2i(compare(x.left[pair[0]], x.op, x.right[pair[1]]))
			}
			bucket[j] = int32(nk) - (int32(nk)-b)*int32(m)
			n += m
		}
	}
	if count {
		return nil, n
	}

	pairs := take(&sc.pairs, 2*len(fsel))
	if kt == jp.bt {
		k := 0
		for j, b := range bucket {
			pairs[2*k+kt], pairs[2*k+ft] = b, fsel[j]
			k += b2i(b != int32(nk))
		}
		return pairs[:2*n], n
	}
	starts := take(&sc.heads, nk+2) // starts[b+1] counts bucket b, then starts[b] is its first pair
	clear(starts)
	for _, b := range bucket {
		starts[b+1]++
	}
	for b := 1; b < len(starts); b++ {
		starts[b] += starts[b-1]
	}
	for j, b := range bucket {
		at := 2 * starts[b]
		starts[b]++
		pairs[at+int32(kt)], pairs[at+int32(ft)] = b, fsel[j]
	}
	return pairs[:2*n], n
}

// denseMatch is denseJoin's loop over the F rows fsel, branch-free and
// in a function of its own, so that what it reads stays in registers:
// F row fsel[j]'s value v of the key fd can only equal row i = v·inv
// rounded of K's key kd, and matches if it does and row i is marked.
// bucket[j] is set to i for a match and to len(mark) for none, and the
// matches are counted.
func denseMatch(bucket, fsel []int32, mark []uint8, kd, fd []float64, inv float64) int {
	nk := len(mark)
	last, n := int64(nk-1), 0
	for j, fr := range fsel {
		v := fd[fr]
		i := min(max(int64(v*inv+0.5), 0), last)
		m := int(mark[i]) & b2i(kd[i] == v)
		bucket[j] = int32(nk) - (int32(nk)-int32(i))*int32(m)
		n += m
	}
	return n
}

// hashJoin is join when neither side's key is dense: the build side is
// hashed and the other side probes it in row order.
func hashJoin(sc *scratch, jp *joinPlan, count bool) ([]int32, int) {
	keys, extra, bt := &jp.keys, jp.extra, jp.bt
	build, probe := jp.sel[bt], jp.sel[1-bt]
	bk0, bk1 := keys[0][bt], keys[1][bt]
	pk0, pk1 := keys[0][1-bt], keys[1][1-bt]

	// A chained hash table in two slices: heads[h] and chain[i].next
	// index chain, whose entry i+1 is build[i] with its keys, so that a
	// step along a chain reads one entry. Inserting back to front leaves
	// every chain in build order. Entry 0 ends every chain and is what an
	// empty bucket holds: its keys are NaN, which equals nothing.
	shift := 64 - bits.Len(uint(2*len(build)-1))
	heads := take(&sc.heads, 1<<(64-shift))
	clear(heads)
	chain := take(&sc.chain, len(build)+1) // every entry is written below
	chain[0] = joinEntry{k0: math.NaN(), k1: math.NaN()}
	for i := len(build); i > 0; i-- {
		br := build[i-1]
		k0, k1 := bk0[br], bk1[br]
		h := hashKey(k0, k1) >> shift
		chain[i] = joinEntry{k0: k0, k1: k1, row: br, next: heads[h]}
		heads[h] = int32(i)
	}

	// A probe compares every entry of its bucket's chain, entry 0 for an
	// empty bucket, and counts it by the comparison's result, as filter
	// does: a branch on the match, or on the empty bucket, is a coin toss
	// (55% of the probes of a photoobj ⋈ neighbors statement find an
	// empty bucket). Collecting, every entry is written and the pairs
	// advanced by the count.
	var pairs []int32
	if !count {
		pairs = take(&sc.pairs, 2*len(probe))
	}
	n := 0
	for _, pr := range probe {
		k0, k1 := pk0[pr], pk1[pr]
		for e := heads[hashKey(k0, k1)>>shift]; ; {
			be := &chain[e]
			m := b2i(be.k0 == k0) & b2i(be.k1 == k1)
			if len(extra) > 0 && m == 1 {
				var pair [2]int32
				pair[bt], pair[1-bt] = be.row, pr
				for i := range extra {
					x := &extra[i]
					m &= b2i(compare(x.left[pair[0]], x.op, x.right[pair[1]]))
				}
			}
			if !count {
				if 2*n+2 > len(pairs) { // a probe row may match many times
					pairs = append(pairs, 0, 0)
					pairs = pairs[:cap(pairs)]
				}
				pairs[2*n+bt], pairs[2*n+1-bt] = be.row, pr
			}
			n += m
			if e = be.next; e == 0 {
				break
			}
		}
	}
	if count {
		return nil, n
	}
	sc.pairs = pairs // keep what append grew
	return pairs[:2*n], n
}

// joinEntry is one build row of a join's hash table: its keys, its row
// and the next entry of its chain (see join).
type joinEntry struct {
	k0, k1    float64
	row, next int32
}

// rowSort stably orders matches (stride entries of rows each) by a key
// per match: ascending, descending, or ascending with NaNs first (the
// order of sort.Float64s).
type rowSort struct {
	keys     []float64
	rows     []int32
	stride   int
	desc     bool
	nanFirst bool
}

// sortKeys returns the value of the column vals of FROM table ti at
// each match of rows (stride entries each), in the scratch's sort keys.
func (sc *scratch) sortKeys(rows []int32, stride int, vals []float64, ti int) []float64 {
	keys := take(&sc.sort.keys, len(rows)/stride)
	for i := range keys {
		keys[i] = vals[rows[i*stride+ti]]
	}
	return keys
}

// sortRows orders rows as s says by the column vals of FROM table ti and
// returns the sorted keys, which are the scratch's.
func (sc *scratch) sortRows(s rowSort, vals []float64, ti int) []float64 {
	s.keys = sc.sortKeys(s.rows, s.stride, vals, ti)
	sc.sort = s
	sort.Stable(&sc.sort)
	return s.keys
}

func (s *rowSort) Len() int { return len(s.keys) }

func (s *rowSort) Less(i, j int) bool {
	a, b := s.keys[i], s.keys[j]
	if s.desc {
		return a > b
	}
	return a < b || (s.nanFirst && math.IsNaN(a) && !math.IsNaN(b))
}

func (s *rowSort) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	i, j = i*s.stride, j*s.stride
	for k := 0; k < s.stride; k++ {
		s.rows[i+k], s.rows[j+k] = s.rows[j+k], s.rows[i+k]
	}
}

// finish scales cardinality and applies TOP and, when tuples are
// wanted, applies ORDER BY, computes aggregates and materializes the
// bounded tuple sample. rows holds the matches, one entry per FROM
// table each, or is nil when they were only counted.
func (db *DB) finish(sc *scratch, b *Bound, rows []int32, matches int, res *Result, tuples bool) error {
	stride := len(b.Tables)
	*res = Result{SampleMatches: int64(matches), Columns: db.outputColumns(b, res.Columns)}

	if b.GroupBy != nil {
		db.finishGrouped(sc, b, rows, res, tuples)
		return nil
	}
	if tuples && b.OrderBy != nil {
		sc.sortRows(rowSort{rows: rows, stride: stride, desc: b.OrderDesc}, db.vals(b, b.OrderBy), b.OrderBy.TableIdx)
	}

	logical := int64(matches) * db.cfg.SampleEvery
	if b.Stmt.HasAggregate() {
		for _, agg := range b.ProjAggs {
			if agg == sqlparse.AggNone {
				return &ExecError{Msg: "mixing aggregates and plain columns requires GROUP BY, which is not supported"}
			}
		}
		res.Rows = 1
		res.Bytes = b.ProjectedWidth()
		if !tuples {
			return nil
		}
		res.newTuples(1, len(b.Projs))
		for i := range b.Projs {
			res.Tuples[0][i] = db.aggregate(b, i, rows)
		}
		return nil
	}
	if b.Stmt.Top > 0 && logical > b.Stmt.Top {
		logical = b.Stmt.Top
	}
	res.Rows = logical
	res.Bytes = logical * b.ProjectedWidth()
	if !tuples {
		return nil
	}

	proj := db.projection(sc, b)
	res.newTuples(db.limit(matches, logical), len(proj))
	for j, c := range proj {
		for r, t := range res.Tuples {
			t[j] = c.vals[rows[r*stride+c.table]]
		}
	}
	return nil
}

// limit bounds the number of materialized tuples: no more than there
// are, than the logical cardinality, than Config.MaxResultRows.
func (db *DB) limit(have int, logical int64) int {
	if int64(have) > logical {
		have = int(logical)
	}
	if have > db.cfg.MaxResultRows {
		have = db.cfg.MaxResultRows
	}
	return have
}

// tupleBuf is tuple memory between the Release that gave it back and
// the ExecuteInto that takes it: one array and the row headers cut
// from it.
type tupleBuf struct {
	flat []float64
	rows [][]float64
}

// tuplePool holds *tupleBuf. It has no New: it is empty until a caller
// releases a result, and stays empty for a caller that never does.
var tuplePool sync.Pool

// poisonReleased makes Release overwrite the tuples with poison before
// it pools their memory, so that a read after Release — or a cell a
// later execution forgets to write — fails a test instead of finding
// plausible numbers. Tests switch it on (export_test.go).
var poisonReleased bool

// poison is a NaN no arithmetic produces, so it differs bit for bit
// from the NaNs a column may hold.
var poison = math.Float64frombits(0x7ff8dead_deaddead)

// newTuples gives res n tuples of the given width cut from one array
// (nil for none, as an empty result has always had). The memory is the
// pool's when the pool has enough, and otherwise exactly what the
// tuples need — what a caller that never releases has always been
// handed, and pays for.
func (res *Result) newTuples(n, width int) {
	if n == 0 {
		return
	}
	tb, _ := tuplePool.Get().(*tupleBuf)
	if tb != nil && cap(tb.flat) >= n*width && cap(tb.rows) >= n {
		res.flat, res.Tuples = tb.flat[:n*width], tb.rows[:n]
	} else {
		res.flat, res.Tuples = make([]float64, n*width), make([][]float64, n)
	}
	res.buf = tb
	for r := range res.Tuples {
		res.Tuples[r] = res.flat[r*width : (r+1)*width : (r+1)*width]
	}
}

// Release gives the memory of Tuples back, for a later ExecuteInto to
// cut its tuples from. It is optional — a result never released is
// ordinary garbage, and costs what it always has — and it is final: the
// caller has finished with Tuples and with every slice taken from it,
// wherever it copied them (a wire.ResultMsg, say). Tuples is nil
// afterwards; the other fields stay readable. Memory above a fixed size
// is not kept.
func (res *Result) Release() {
	if res == nil || res.flat == nil {
		return
	}
	tb, flat, rows := res.buf, res.flat, res.Tuples
	res.buf, res.flat, res.Tuples = nil, nil, nil
	if cap(flat) > maxPooledElems { // and with it the rows: there is one per cell at most
		return
	}
	if poisonReleased {
		for i := range flat {
			flat[i] = poison
		}
	}
	if tb == nil {
		tb = new(tupleBuf)
	}
	tb.flat, tb.rows = flat, rows
	tuplePool.Put(tb)
}

// Scramble overwrites what the result holds — the tuples with poison,
// the column names, the counts — and leaves it as releasable as it was.
// It is for the tests of a Result's owners (see Bound.Scramble).
func (res *Result) Scramble() {
	for i := range res.flat {
		res.flat[i] = poison
	}
	fill(res.Columns, scrambled)
	res.Rows, res.Bytes, res.SampleMatches = math.MinInt64, math.MinInt64, math.MinInt64
}

// finishGrouped evaluates a GROUP BY statement: one output row per
// distinct group value among the matches, ascending, with aggregates
// computed per group. Group counts of effectively-unique columns (keys,
// floats) scale by the sampling factor; low-cardinality integer
// columns do not (their distinct values are all present in any
// sample). Without tuples it stops at the count, and sorts the grouping
// keys alone to reach it.
func (db *DB) finishGrouped(sc *scratch, b *Bound, rows []int32, res *Result, tuples bool) {
	stride, vals, ti := len(b.Tables), db.vals(b, b.GroupBy), b.GroupBy.TableIdx
	// Sorted by group value, each group is a run of equal keys, with its
	// rows still in match order when they are sorted too. NaN equals
	// nothing: every NaN row is a run of its own (both sorts put the NaNs
	// first); -0 equals +0: both are one run.
	var keys []float64
	if tuples {
		keys = sc.sortRows(rowSort{rows: rows, stride: stride, nanFirst: true}, vals, ti)
	} else {
		keys = sc.sortKeys(rows, stride, vals, ti)
		slices.Sort(keys)
	}
	starts := sc.starts[:0] // first match of each group
	for i, v := range keys {
		if i == 0 || v != keys[i-1] {
			starts = append(starts, i)
		}
	}
	sc.starts = starts

	logical := int64(len(starts))
	if distinct(*b.GroupBy) >= float64(b.GroupBy.Table.Rows) {
		logical *= db.cfg.SampleEvery
	}
	if b.Stmt.Top > 0 && logical > b.Stmt.Top {
		logical = b.Stmt.Top
	}
	res.Rows = logical
	res.Bytes = logical * b.ProjectedWidth()
	if !tuples {
		return
	}

	res.newTuples(db.limit(len(starts), logical), len(b.Projs))
	for g, tuple := range res.Tuples {
		end := len(keys)
		if g+1 < len(starts) {
			end = starts[g+1]
		}
		// The key as the run's last row spells it (-0 or +0), and for a
		// NaN key a group with no rows in it: what a Go map keyed by the
		// value holds, which is how groups were first built and what
		// results are held to.
		v := keys[end-1]
		grp := rows[starts[g]*stride : end*stride]
		if math.IsNaN(v) {
			grp = nil
		}
		for i := range b.Projs {
			if b.ProjAggs[i] == sqlparse.AggNone {
				tuple[i] = v
			} else {
				tuple[i] = db.aggregate(b, i, grp)
			}
		}
	}
}

// outCol is one projected column: its values and the FROM table whose
// row number indexes them.
type outCol struct {
	vals  []float64
	table int
}

// projection resolves the projections of a statement without
// aggregates: its columns, or every column of every FROM table for star.
func (db *DB) projection(sc *scratch, b *Bound) []outCol {
	if b.Star {
		out := take(&sc.proj, db.starWidth(b))[:0]
		for ti, pos := range b.TablePos {
			for _, vals := range db.tables[pos].cols {
				out = append(out, outCol{vals, ti})
			}
		}
		return out
	}
	out := take(&sc.proj, len(b.Projs))
	for i := range b.Projs {
		out[i] = outCol{db.vals(b, &b.Projs[i]), b.Projs[i].TableIdx}
	}
	return out
}

// aggregate computes projection i's aggregate over the matches in
// rows. count and sum scale to logical size; avg/min/max are sample
// statistics (unbiased under uniform sampling) and 0 over no rows.
func (db *DB) aggregate(b *Bound, i int, rows []int32) float64 {
	stride := len(b.Tables)
	n := len(rows) / stride
	agg := b.ProjAggs[i]
	if agg == sqlparse.AggCount {
		return float64(int64(n) * db.cfg.SampleEvery)
	}
	p := &b.Projs[i]
	vals := db.vals(b, p)
	var sum float64
	min, max := math.Inf(1), math.Inf(-1)
	for r := p.TableIdx; r < len(rows); r += stride {
		v := vals[rows[r]]
		sum += v
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	switch {
	case agg == sqlparse.AggSum:
		return sum * float64(db.cfg.SampleEvery)
	case n == 0:
		return 0
	case agg == sqlparse.AggAvg:
		return sum / float64(n)
	case agg == sqlparse.AggMin:
		return min
	case agg == sqlparse.AggMax:
		return max
	default:
		return 0
	}
}

// starWidth counts the columns of a star projection.
func (db *DB) starWidth(b *Bound) int {
	n := 0
	for _, pos := range b.TablePos {
		n += len(db.tables[pos].cols)
	}
	return n
}

// outputColumns names the result columns, in buf's memory when it is
// enough.
func (db *DB) outputColumns(b *Bound, buf []string) []string {
	if b.Star {
		out := empty(buf, db.starWidth(b))
		for _, pos := range b.TablePos {
			out = append(out, db.tables[pos].names...)
		}
		return out
	}
	out := empty(buf, len(b.Stmt.Items))[:len(b.Stmt.Items)]
	for i := range out {
		switch item := &b.Stmt.Items[i]; {
		case item.Alias != "":
			out[i] = item.Alias
		case item.Agg != sqlparse.AggNone:
			out[i] = item.String()
		default:
			p := &b.Projs[i]
			out[i] = db.tables[b.TablePos[p.TableIdx]].names[p.Pos]
		}
	}
	return out
}
