package engine

import (
	"bypassyield/internal/catalog"
	"bypassyield/internal/sqlparse"
)

// Region analysis: the per-column intervals a statement's literal
// predicates imply. Both the semantic cache and the materialized-view
// matcher decide containment questions over these intervals; for this
// SQL subset (conjunctions of per-column comparisons and BETWEEN)
// interval containment is exact.

// Interval is a closed numeric range.
type Interval struct {
	Lo, Hi float64
}

// Contains reports whether other lies within i.
func (i Interval) Contains(other Interval) bool {
	return other.Lo >= i.Lo && other.Hi <= i.Hi
}

// ConditionInterval converts a literal condition on a column into the
// interval of values it admits. Operators that admit disjoint sets
// (<>) widen to the full column span.
func ConditionInterval(cond sqlparse.Condition, col *catalog.Column) Interval {
	if cond.Between {
		return Interval{cond.Lo, cond.Hi}
	}
	switch cond.Op {
	case sqlparse.OpEq:
		return Interval{cond.Value, cond.Value}
	case sqlparse.OpLt, sqlparse.OpLe:
		return Interval{col.Min, cond.Value}
	case sqlparse.OpGt, sqlparse.OpGe:
		return Interval{cond.Value, col.Max}
	default:
		return Interval{col.Min, col.Max}
	}
}

// RegionContains reports whether the outer region (a view's or cached
// result's predicate box, column name → interval, absent columns
// unconstrained) contains the inner region (a query's): for every
// column the outer constrains, the inner must constrain at least as
// tightly.
func RegionContains(outer, inner map[string]Interval) bool {
	for col, o := range outer {
		in, ok := inner[col]
		if !ok {
			return false
		}
		if !o.Contains(in) {
			return false
		}
	}
	return true
}

// ColumnInterval is the interval the statement's literal predicates
// imply for one column of one FROM table, named by its position in the
// table: the intersection of the literal predicates on it, and whether
// there is any.
func (b *Bound) ColumnInterval(tableIdx, pos int) (iv Interval, constrained bool) {
	for _, c := range b.Conds {
		if c.Right.Col != nil || c.Left.TableIdx != tableIdx || c.Left.Pos != pos {
			continue
		}
		next := ConditionInterval(c.Cond, c.Left.Col)
		if constrained {
			if iv.Lo > next.Lo {
				next.Lo = iv.Lo
			}
			if iv.Hi < next.Hi {
				next.Hi = iv.Hi
			}
		}
		iv, constrained = next, true
	}
	return iv, constrained
}
