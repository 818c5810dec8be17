package engine

import (
	"fmt"
	"math"
	"sort"

	"bypassyield/internal/sqlparse"
)

// This file is the executor as it stood before columns were resolved
// at bind: one row at a time, every column looked up by name where it
// is used. It is the specification ExecuteBound is held to (see
// differential_test.go and FuzzExecute) and is allowed to be slow.
// Apart from the ref prefix and the missing counters it is the old
// code, quirks included: a NaN GROUP BY key names a group of its own
// per row and, NaN never equalling itself, aggregates over none.

// ReferenceExecute evaluates a bound statement with the reference
// executor (exported to the engine_test package only).
func ReferenceExecute(db *DB, b *Bound) (*Result, error) {
	switch len(b.Tables) {
	case 1:
		return db.refExecSingle(b)
	case 2:
		return db.refExecJoin(b)
	default:
		return nil, &ExecError{Msg: fmt.Sprintf("%d-table statements not supported (max 2)", len(b.Tables))}
	}
}

// Poke overwrites one sample value, for the values synthesis never
// mixes into a column: a NaN among numbers, -0 beside +0 (exported to
// the engine_test package only). The table's dense column is checked
// again, so a key poked off its grid is no longer joined by arithmetic.
func Poke(db *DB, table, col string, row int, v float64) {
	db.columnValues(table, col)[row] = v
	td := &db.tables[db.schema.TableIndex(table)]
	td.dense = denseColumn(td.cols, db.cfg.SampleEvery)
}

// columnValues returns the sample values of a column by name (shared
// slice; callers must not mutate), or nil for unknown names. Only the
// reference executor and the tests resolve columns this way.
func (db *DB) columnValues(table, col string) []float64 {
	ti := db.schema.TableIndex(table)
	if ti < 0 {
		return nil
	}
	ci := db.schema.Tables[ti].ColumnIndex(col)
	if ci < 0 {
		return nil
	}
	return db.tables[ti].cols[ci]
}

// refEvalLocal returns the sample row indexes of one table satisfying
// its literal and same-table predicates.
func (db *DB) refEvalLocal(b *Bound, tableIdx int) ([]int32, error) {
	n := db.SampleRows(b.Tables[tableIdx].Name)
	out := make([]int32, 0, n)
scan:
	for i := 0; i < n; i++ {
		for _, c := range b.Conds {
			if c.Left.TableIdx != tableIdx {
				continue
			}
			if c.Right.Col != nil {
				if c.Right.TableIdx != tableIdx {
					continue // cross-table: handled by the join
				}
				l := db.columnValues(b.Tables[tableIdx].Name, c.Left.Col.Name)[i]
				r := db.columnValues(b.Tables[tableIdx].Name, c.Right.Col.Name)[i]
				if !refCompare(l, c.Cond.Op, r) {
					continue scan
				}
				continue
			}
			v := db.columnValues(b.Tables[tableIdx].Name, c.Left.Col.Name)[i]
			if !refEvalLiteral(v, c.Cond) {
				continue scan
			}
		}
		out = append(out, int32(i))
	}
	return out, nil
}

// refEvalLiteral evaluates a literal comparison or BETWEEN.
func refEvalLiteral(v float64, c sqlparse.Condition) bool {
	if c.Between {
		return v >= c.Lo && v <= c.Hi
	}
	return refCompare(v, c.Op, c.Value)
}

func refCompare(l float64, op sqlparse.CompareOp, r float64) bool {
	switch op {
	case sqlparse.OpEq:
		return l == r
	case sqlparse.OpNotEq:
		return l != r
	case sqlparse.OpLt:
		return l < r
	case sqlparse.OpLe:
		return l <= r
	case sqlparse.OpGt:
		return l > r
	case sqlparse.OpGe:
		return l >= r
	default:
		return false
	}
}

// refExecSingle evaluates a single-table statement.
func (db *DB) refExecSingle(b *Bound) (*Result, error) {
	matches, err := db.refEvalLocal(b, 0)
	if err != nil {
		return nil, err
	}
	rowOf := func(m int32) []int32 { return []int32{m} }
	pairs := make([][]int32, len(matches))
	for i, m := range matches {
		pairs[i] = rowOf(m)
	}
	return db.refFinish(b, pairs)
}

// refExecJoin evaluates a two-table statement with at least one
// cross-table equi-join condition (cross products are rejected — at
// sample scale alone they can explode).
func (db *DB) refExecJoin(b *Bound) (*Result, error) {
	var equi []BoundCond  // cross-table equality
	var extra []BoundCond // other cross-table comparisons
	for _, c := range b.Conds {
		if c.Right.Col == nil || c.Left.TableIdx == c.Right.TableIdx {
			continue
		}
		if c.Cond.Op == sqlparse.OpEq {
			equi = append(equi, c)
		} else {
			extra = append(extra, c)
		}
	}
	if len(equi) == 0 {
		return nil, &ExecError{Msg: "cross products are not supported; add a join condition"}
	}
	left, err := db.refEvalLocal(b, 0)
	if err != nil {
		return nil, err
	}
	right, err := db.refEvalLocal(b, 1)
	if err != nil {
		return nil, err
	}

	// Build on the smaller side.
	buildIdx, probeIdx := 0, 1
	buildRows, probeRows := left, right
	if len(right) < len(left) {
		buildIdx, probeIdx = 1, 0
		buildRows, probeRows = right, left
	}
	keyCols := func(tableIdx int) [][]float64 {
		cols := make([][]float64, len(equi))
		for i, c := range equi {
			bc := c.Left
			if bc.TableIdx != tableIdx {
				bc = c.Right
			}
			cols[i] = db.columnValues(b.Tables[tableIdx].Name, bc.Col.Name)
		}
		return cols
	}
	buildCols := keyCols(buildIdx)
	probeCols := keyCols(probeIdx)

	type key [2]float64 // up to two join columns; more is rejected
	if len(equi) > 2 {
		return nil, &ExecError{Msg: "at most two equi-join conditions supported"}
	}
	mk := func(cols [][]float64, row int32) key {
		var k key
		for i, c := range cols {
			k[i] = c[row]
		}
		return k
	}
	ht := make(map[key][]int32, len(buildRows))
	for _, r := range buildRows {
		k := mk(buildCols, r)
		ht[k] = append(ht[k], r)
	}

	extraVals := func(c BoundCond, lrow, rrow int32) (float64, float64) {
		rows := [2]int32{lrow, rrow}
		l := db.columnValues(b.Tables[c.Left.TableIdx].Name, c.Left.Col.Name)[rows[c.Left.TableIdx]]
		r := db.columnValues(b.Tables[c.Right.TableIdx].Name, c.Right.Col.Name)[rows[c.Right.TableIdx]]
		return l, r
	}

	var pairs [][]int32
	for _, pr := range probeRows {
	match:
		for _, br := range ht[mk(probeCols, pr)] {
			row := make([]int32, 2)
			row[buildIdx] = br
			row[probeIdx] = pr
			for _, c := range extra {
				l, r := extraVals(c, row[0], row[1])
				if !refCompare(l, c.Cond.Op, r) {
					continue match
				}
			}
			pairs = append(pairs, row)
		}
	}
	return db.refFinish(b, pairs)
}

// refFinish scales cardinality, applies ORDER BY and TOP, computes
// aggregates, and materializes the bounded tuple sample.
func (db *DB) refFinish(b *Bound, rows [][]int32) (*Result, error) {
	res := &Result{SampleMatches: int64(len(rows))}
	res.Columns = refOutputColumns(b)

	if b.GroupBy != nil {
		return db.refFinishGrouped(b, rows, res)
	}
	if b.OrderBy != nil {
		vals := db.columnValues(b.Tables[b.OrderBy.TableIdx].Name, b.OrderBy.Col.Name)
		ti := b.OrderBy.TableIdx
		desc := b.OrderDesc
		sort.SliceStable(rows, func(i, j int) bool {
			vi, vj := vals[rows[i][ti]], vals[rows[j][ti]]
			if desc {
				return vi > vj
			}
			return vi < vj
		})
	}

	logical := int64(len(rows)) * db.cfg.SampleEvery
	if b.Stmt.HasAggregate() {
		res.Rows = 1
		res.Bytes = b.ProjectedWidth()
		tuple, err := db.refAggregate(b, rows)
		if err != nil {
			return nil, err
		}
		res.Tuples = [][]float64{tuple}
		return res, nil
	}
	if b.Stmt.Top > 0 && logical > b.Stmt.Top {
		logical = b.Stmt.Top
	}
	res.Rows = logical
	res.Bytes = logical * b.ProjectedWidth()

	limit := len(rows)
	if int64(limit) > logical {
		limit = int(logical)
	}
	if limit > db.cfg.MaxResultRows {
		limit = db.cfg.MaxResultRows
	}
	for i := 0; i < limit; i++ {
		res.Tuples = append(res.Tuples, db.refMaterialize(b, rows[i]))
	}
	return res, nil
}

// refFinishGrouped evaluates a GROUP BY statement: one output row per
// distinct group value among the matches, with aggregates computed
// per group. Group counts of effectively-unique columns (keys,
// floats) scale by the sampling factor; low-cardinality integer
// columns do not (their distinct values are all present in any
// sample).
func (db *DB) refFinishGrouped(b *Bound, rows [][]int32, res *Result) (*Result, error) {
	gvals := db.columnValues(b.Tables[b.GroupBy.TableIdx].Name, b.GroupBy.Col.Name)
	ti := b.GroupBy.TableIdx
	groups := make(map[float64][][]int32)
	for _, row := range rows {
		v := gvals[row[ti]]
		groups[v] = append(groups[v], row)
	}
	keys := make([]float64, 0, len(groups))
	for v := range groups {
		keys = append(keys, v)
	}
	sort.Float64s(keys)

	logical := int64(len(groups))
	if distinct(*b.GroupBy) >= float64(b.GroupBy.Table.Rows) {
		logical *= db.cfg.SampleEvery
	}
	if b.Stmt.Top > 0 && logical > b.Stmt.Top {
		logical = b.Stmt.Top
	}
	res.Rows = logical
	res.Bytes = logical * b.ProjectedWidth()

	limit := len(keys)
	if int64(limit) > logical {
		limit = int(logical)
	}
	if limit > db.cfg.MaxResultRows {
		limit = db.cfg.MaxResultRows
	}
	for _, v := range keys[:limit] {
		grp := groups[v]
		tuple := make([]float64, 0, len(b.Projs))
		for i, p := range b.Projs {
			if b.ProjAggs[i] == sqlparse.AggNone {
				tuple = append(tuple, v)
				continue
			}
			agg, err := db.refAggregate(&Bound{
				Stmt:     b.Stmt,
				Tables:   b.Tables,
				Projs:    []BoundCol{p},
				ProjAggs: []sqlparse.AggFunc{b.ProjAggs[i]},
			}, grp)
			if err != nil {
				return nil, err
			}
			tuple = append(tuple, agg[0])
		}
		res.Tuples = append(res.Tuples, tuple)
	}
	return res, nil
}

// refMaterialize projects one joined sample row.
func (db *DB) refMaterialize(b *Bound, row []int32) []float64 {
	if b.Star {
		var out []float64
		for ti, t := range b.Tables {
			for j := range t.Columns {
				out = append(out, db.columnValues(t.Name, t.Columns[j].Name)[row[ti]])
			}
		}
		return out
	}
	out := make([]float64, 0, len(b.Projs))
	for i, p := range b.Projs {
		if b.ProjAggs[i] != sqlparse.AggNone || p.Col == nil {
			continue
		}
		out = append(out, db.columnValues(p.Table.Name, p.Col.Name)[row[p.TableIdx]])
	}
	return out
}

// refAggregate computes the refAggregate tuple over the matching sample
// rows. count and sum scale to logical size; avg/min/max are
// sample statistics (unbiased under uniform sampling).
func (db *DB) refAggregate(b *Bound, rows [][]int32) ([]float64, error) {
	out := make([]float64, 0, len(b.Projs))
	for i, p := range b.Projs {
		agg := b.ProjAggs[i]
		if agg == sqlparse.AggNone {
			return nil, &ExecError{Msg: "mixing aggregates and plain columns requires GROUP BY, which is not supported"}
		}
		if agg == sqlparse.AggCount {
			out = append(out, float64(int64(len(rows))*db.cfg.SampleEvery))
			continue
		}
		vals := db.columnValues(p.Table.Name, p.Col.Name)
		var sum float64
		min, max := math.Inf(1), math.Inf(-1)
		for _, row := range rows {
			v := vals[row[p.TableIdx]]
			sum += v
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		switch agg {
		case sqlparse.AggSum:
			out = append(out, sum*float64(db.cfg.SampleEvery))
		case sqlparse.AggAvg:
			if len(rows) == 0 {
				out = append(out, 0)
			} else {
				out = append(out, sum/float64(len(rows)))
			}
		case sqlparse.AggMin:
			if len(rows) == 0 {
				out = append(out, 0)
			} else {
				out = append(out, min)
			}
		case sqlparse.AggMax:
			if len(rows) == 0 {
				out = append(out, 0)
			} else {
				out = append(out, max)
			}
		}
	}
	return out, nil
}

// refOutputColumns names the result columns.
func refOutputColumns(b *Bound) []string {
	if b.Star {
		var out []string
		for _, t := range b.Tables {
			for j := range t.Columns {
				out = append(out, t.Name+"."+t.Columns[j].Name)
			}
		}
		return out
	}
	out := make([]string, 0, len(b.Stmt.Items))
	for i, item := range b.Stmt.Items {
		switch {
		case item.Alias != "":
			out = append(out, item.Alias)
		case item.Agg != sqlparse.AggNone:
			out = append(out, item.String())
		default:
			p := b.Projs[i]
			out = append(out, p.Table.Name+"."+p.Col.Name)
		}
	}
	return out
}
