// Package engine implements a miniature in-memory column store over a
// catalog schema: deterministic synthetic data generation at a
// configurable sampling factor, execution of the sqlparse SELECT
// subset (scans, conjunctive predicates, two-table hash joins,
// aggregates, TOP), and a catalog-only cardinality/yield estimator.
//
// All result sizes are reported at LOGICAL scale: a database sampled
// at 1/N materializes Rows/N tuples but scales row counts and byte
// sizes back up, so cache economics computed from engine results match
// the paper's full-scale accounting.
package engine

import (
	"fmt"
	"math"

	"bypassyield/internal/catalog"
	"bypassyield/internal/sqlparse"
)

// BoundCol is a column reference resolved against the schema.
type BoundCol struct {
	// TableIdx indexes the statement's FROM list.
	TableIdx int
	// Table is the resolved catalog table.
	Table *catalog.Table
	// Col is the resolved catalog column.
	Col *catalog.Column
	// Pos is Col's position in Table.Columns, which is also its
	// position in the engine's column storage: neither the executor nor
	// the yield decomposition looks a column up by name.
	Pos int
}

// BoundCond is a WHERE conjunct with both sides resolved.
type BoundCond struct {
	// Cond is the original condition.
	Cond sqlparse.Condition
	// Left is the resolved left column.
	Left BoundCol
	// Right is the resolved right column of a column-to-column
	// comparison; its Col is nil for literal comparisons and BETWEEN.
	Right BoundCol
}

// Bound is a statement resolved against a schema: every table and
// column reference checked and linked to catalog metadata. The zero
// value is ready for Rebind, which resolves one statement after another
// into the same memory.
type Bound struct {
	// Stmt is the original statement.
	Stmt *sqlparse.SelectStmt
	// Schema is the schema the statement was resolved against.
	Schema *catalog.Schema
	// Tables are the resolved FROM tables, in statement order.
	Tables []*catalog.Table
	// TablePos is each FROM table's position in Schema.Tables.
	TablePos []int
	// Projs are the resolved plain-column projections (empty for
	// star; aggregates resolve their argument unless count(*)).
	Projs []BoundCol
	// ProjAggs mirrors Stmt.Items: the aggregate of each projection.
	ProjAggs []sqlparse.AggFunc
	// Star reports a select-all projection.
	Star bool
	// Conds are the resolved WHERE conjuncts.
	Conds []BoundCond
	// GroupBy is the resolved grouping column, or nil.
	GroupBy *BoundCol
	// OrderBy is the resolved ordering column, or nil; OrderDesc
	// selects descending order.
	OrderBy   *BoundCol
	OrderDesc bool
	// refs is the statement's distinct referenced columns, computed once
	// by Bind (see ReferencedColumns).
	refs []BoundCol
	// Tables and TablePos of a statement the executor accepts (two FROM
	// tables at most) are cut from these, not allocated.
	tablesBuf   [2]*catalog.Table
	tablePosBuf [2]int
	// GroupBy and OrderBy point here.
	groupBy, orderBy BoundCol
}

// BindError reports a name-resolution failure.
type BindError struct {
	Ref string
	Msg string
}

func (e *BindError) Error() string {
	return fmt.Sprintf("engine: %s: %s", e.Msg, e.Ref)
}

// Bind resolves a statement against a schema. Every FROM table must
// exist; every column reference must resolve to exactly one table. The
// Bound is the caller's to keep.
func Bind(s *catalog.Schema, stmt *sqlparse.SelectStmt) (*Bound, error) {
	b := new(Bound)
	if err := b.Rebind(s, stmt); err != nil {
		return nil, err
	}
	return b, nil
}

// empty returns buf emptied, with room for n elements: in its own memory
// when that is enough, and otherwise in fresh memory of exactly that
// size, which is what a zero Bound is given.
func empty[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// Rebind is Bind into b, over what b held: the lists keep their memory
// from one statement to the next, and whoever calls it has finished with
// the last binding and with every slice and pointer taken from it. After
// an error b means nothing until it is bound again.
func (b *Bound) Rebind(s *catalog.Schema, stmt *sqlparse.SelectStmt) error {
	if len(stmt.From) == 0 {
		return &BindError{Msg: "no tables", Ref: stmt.String()}
	}
	b.Stmt, b.Schema = stmt, s
	b.Star, b.GroupBy, b.OrderBy, b.OrderDesc = false, nil, nil, false
	// Every list is sized from the statement, once.
	b.Projs = empty(b.Projs, len(stmt.Items))
	b.ProjAggs = empty(b.ProjAggs, len(stmt.Items))
	b.Conds = empty(b.Conds, len(stmt.Where))
	b.Tables, b.TablePos = b.tablesBuf[:0], b.tablePosBuf[:0]
	for _, tr := range stmt.From {
		ti := s.TableIndex(tr.Name)
		if ti < 0 {
			return &BindError{Msg: "unknown table", Ref: tr.Name}
		}
		b.Tables = append(b.Tables, &s.Tables[ti])
		b.TablePos = append(b.TablePos, ti)
	}

	boundCol := func(tableIdx, pos int) BoundCol {
		t := b.Tables[tableIdx]
		return BoundCol{TableIdx: tableIdx, Table: t, Col: &t.Columns[pos], Pos: pos}
	}
	resolve := func(ref sqlparse.ColRef) (BoundCol, error) {
		if ref.Table != "" {
			tr := stmt.TableByQualifier(ref.Table)
			if tr == nil {
				return BoundCol{}, &BindError{Msg: "unknown qualifier", Ref: ref.String()}
			}
			for i := range stmt.From {
				if &stmt.From[i] == tr {
					pos := b.Tables[i].ColumnIndex(ref.Column)
					if pos < 0 {
						return BoundCol{}, &BindError{Msg: "unknown column", Ref: ref.String()}
					}
					return boundCol(i, pos), nil
				}
			}
			return BoundCol{}, &BindError{Msg: "unknown qualifier", Ref: ref.String()}
		}
		// Unqualified: must resolve in exactly one FROM table.
		found, pos := -1, -1
		for i, t := range b.Tables {
			if p := t.ColumnIndex(ref.Column); p >= 0 {
				if found >= 0 {
					return BoundCol{}, &BindError{Msg: "ambiguous column", Ref: ref.String()}
				}
				found, pos = i, p
			}
		}
		if found < 0 {
			return BoundCol{}, &BindError{Msg: "unknown column", Ref: ref.String()}
		}
		return boundCol(found, pos), nil
	}

	for _, item := range stmt.Items {
		b.ProjAggs = append(b.ProjAggs, item.Agg)
		if item.Star {
			switch item.Agg {
			case sqlparse.AggNone:
				b.Star = true
			case sqlparse.AggCount:
			default:
				// sum, avg, min and max need a column to read.
				return &BindError{Msg: "aggregate over * other than count", Ref: item.String()}
			}
			b.Projs = append(b.Projs, BoundCol{TableIdx: -1})
			continue
		}
		bc, err := resolve(item.Col)
		if err != nil {
			return err
		}
		b.Projs = append(b.Projs, bc)
	}

	for _, cond := range stmt.Where {
		left, err := resolve(cond.Left)
		if err != nil {
			return err
		}
		bcond := BoundCond{Cond: cond, Left: left}
		if cond.RightCol != nil {
			right, err := resolve(*cond.RightCol)
			if err != nil {
				return err
			}
			bcond.Right = right
		}
		b.Conds = append(b.Conds, bcond)
	}

	if stmt.GroupBy != nil {
		g, err := resolve(*stmt.GroupBy)
		if err != nil {
			return err
		}
		b.groupBy = g
		b.GroupBy = &b.groupBy
		if b.Star {
			return &BindError{Msg: "star projection with GROUP BY", Ref: stmt.String()}
		}
		// Every plain projection must be the grouping column.
		for i, p := range b.Projs {
			if b.ProjAggs[i] != sqlparse.AggNone {
				continue
			}
			if p.Col == nil || p.Col.Name != g.Col.Name || p.TableIdx != g.TableIdx {
				return &BindError{Msg: "non-aggregate projection must be the GROUP BY column", Ref: stmt.Items[i].String()}
			}
		}
	}
	if stmt.OrderBy != nil {
		if b.GroupBy != nil {
			return &BindError{Msg: "ORDER BY with GROUP BY is not supported", Ref: stmt.String()}
		}
		if stmt.HasAggregate() {
			return &BindError{Msg: "ORDER BY over aggregates is not supported", Ref: stmt.String()}
		}
		o, err := resolve(stmt.OrderBy.Col)
		if err != nil {
			return err
		}
		if !b.Star {
			found := false
			for i, p := range b.Projs {
				if b.ProjAggs[i] == sqlparse.AggNone && p.Col != nil &&
					p.Col.Name == o.Col.Name && p.TableIdx == o.TableIdx {
					found = true
					break
				}
			}
			if !found {
				return &BindError{Msg: "ORDER BY column must be projected", Ref: stmt.OrderBy.Col.String()}
			}
		}
		b.orderBy = o
		b.OrderBy = &b.orderBy
		b.OrderDesc = stmt.OrderBy.Desc
	}
	b.collectRefs()
	return nil
}

// What a scrambled Bound names: a table and a column no catalog has, at
// positions no slice has.
const (
	scrambled    = "\x00scrambled"
	scrambledPos = math.MinInt32
)

var (
	scrambledTable = &catalog.Table{Name: scrambled, Site: scrambled}
	scrambledCol   = BoundCol{
		TableIdx: scrambledPos, Pos: scrambledPos,
		Table: scrambledTable, Col: &catalog.Column{Name: scrambled},
	}
)

// Scramble overwrites the binding — every list to its capacity, the
// columns GroupBy and OrderBy point to — with tables and columns no
// catalog has at positions no slice has: what the next Rebind would do
// to it, only unmistakably. It is for the tests of a Bound's owners,
// which call it between statements so that whatever still points into
// the last binding fails instead of reading plausible values; the Bound
// is as ready for Rebind afterwards as before.
func (b *Bound) Scramble() {
	nan := math.NaN()
	fill(b.Tables, scrambledTable)
	fill(b.TablePos, scrambledPos)
	fill(b.tablesBuf[:], scrambledTable) // Tables, unless it outgrew them
	fill(b.tablePosBuf[:], scrambledPos)
	fill(b.Projs, scrambledCol)
	fill(b.ProjAggs, scrambled)
	fill(b.Conds, BoundCond{
		Cond: sqlparse.Condition{Op: scrambled, Value: nan, Lo: nan, Hi: nan},
		Left: scrambledCol, Right: scrambledCol,
	})
	fill(b.refs, scrambledCol)
	b.groupBy, b.orderBy = scrambledCol, scrambledCol
	b.Stmt, b.Schema = nil, nil
}

// fill overwrites s to its capacity with v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// ProjectedWidth returns the byte width of one result row: the sum of
// projected column widths, 8 bytes per aggregate, or the combined row
// width of all FROM tables for star.
func (b *Bound) ProjectedWidth() int64 {
	if b.Star {
		var w int64
		for _, t := range b.Tables {
			w += t.RowWidth()
		}
		return w
	}
	var w int64
	for i, p := range b.Projs {
		if b.ProjAggs[i] != sqlparse.AggNone {
			w += 8
			continue
		}
		if p.Col != nil {
			w += p.Col.Width()
		}
	}
	return w
}

// ReferencedColumns returns every distinct (table, column) pair the
// statement touches — projections, predicates, and join keys — in
// first-reference order. Star projections expand to all columns of all
// FROM tables. A table joined to itself under two aliases contributes
// each of its columns once, under the alias that names it first. The
// federation layer decomposes yields and builds sub-queries over this
// set; the slice is shared, callers must not modify it.
func (b *Bound) ReferencedColumns() []BoundCol { return b.refs }

// collectRefs fills b.refs, de-duplicating by position: a column is
// its table's position in the schema and its own position in the
// table, so no name is built or compared.
func (b *Bound) collectRefs() {
	// One bit per column of each distinct FROM table; a repeated table
	// shares the bits of its first occurrence.
	var baseBuf [8]int
	var seenBuf [8]uint64
	base := baseBuf[:0]
	bits := 0
	for i, t := range b.Tables {
		at := bits
		for j := 0; j < i; j++ {
			if b.TablePos[j] == b.TablePos[i] {
				at = base[j]
				break
			}
		}
		if at == bits {
			bits += len(t.Columns)
		}
		base = append(base, at)
	}
	seen := seenBuf[:]
	if words := (bits + 63) / 64; words > len(seen) {
		seen = make([]uint64, words)
	}
	n := len(b.Projs) + 2*len(b.Conds) + 2
	if b.Star {
		n += bits
	}
	b.refs = empty(b.refs, n)
	add := func(bc BoundCol) {
		if bc.Col == nil {
			return
		}
		bit := base[bc.TableIdx] + bc.Pos
		if seen[bit/64]&(1<<(bit%64)) == 0 {
			seen[bit/64] |= 1 << (bit % 64)
			b.refs = append(b.refs, bc)
		}
	}
	if b.Star {
		for i, t := range b.Tables {
			for j := range t.Columns {
				add(BoundCol{TableIdx: i, Table: t, Col: &t.Columns[j], Pos: j})
			}
		}
	}
	for _, p := range b.Projs {
		add(p)
	}
	for _, c := range b.Conds {
		add(c.Left)
		add(c.Right)
	}
	if b.GroupBy != nil {
		add(*b.GroupBy)
	}
	if b.OrderBy != nil {
		add(*b.OrderBy)
	}
}
