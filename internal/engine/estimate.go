package engine

import (
	"bypassyield/internal/catalog"
	"bypassyield/internal/sqlparse"
)

// EstimateBound computes the expected logical result cardinality and
// byte size (yield) of a bound statement from catalog statistics alone,
// assuming uniform value distributions and independent predicates — the
// same assumptions the data synthesizer satisfies by construction, so
// estimates agree with execution up to sampling noise.
//
// Join estimation uses the standard containment rule: the join
// selectivity of L.c = R.c is 1/max(distinct(L.c), distinct(R.c)).
// For a foreign key joining a key column this reduces to "one match
// per foreign row", which models the photoobj ⋈ specobj joins in the
// paper's workload exactly.
func EstimateBound(b *Bound) (rows, bytes int64, err error) {
	// Per-table selectivity from non-join predicates; join conditions
	// collected separately.
	sel := make([]float64, len(b.Tables))
	for i := range sel {
		sel[i] = 1
	}
	var joins []BoundCond
	for _, c := range b.Conds {
		if c.Right.Col != nil {
			if c.Left.TableIdx != c.Right.TableIdx {
				joins = append(joins, c)
			} else {
				// Same-table column comparison: use a neutral 1/3 —
				// uniform independent columns satisfy an inequality
				// about half the time and equality almost never; 1/3
				// is the usual optimizer guess.
				sel[c.Left.TableIdx] *= 1.0 / 3.0
			}
			continue
		}
		sel[c.Left.TableIdx] *= condSelectivity(c)
	}

	est := 1.0
	for i, t := range b.Tables {
		est *= float64(t.Rows) * sel[i]
	}
	for _, j := range joins {
		dl := distinct(j.Left)
		dr := distinct(j.Right)
		d := dl
		if dr > d {
			d = dr
		}
		if d > 0 {
			est /= d
		}
	}
	if len(b.Tables) > 1 && len(joins) == 0 {
		// Pure cross product: already the product of cardinalities.
	}
	if est < 0 {
		est = 0
	}
	rows = int64(est + 0.5)
	switch {
	case b.GroupBy != nil:
		// One row per distinct group value present in the result.
		groups := int64(distinct(*b.GroupBy) + 0.5)
		if rows < groups {
			groups = rows
		}
		rows = groups
	case b.Stmt.HasAggregate():
		rows = 1
	}
	if b.Stmt.Top > 0 && rows > b.Stmt.Top {
		rows = b.Stmt.Top
	}
	return rows, rows * b.ProjectedWidth(), nil
}

// condSelectivity estimates a literal predicate's selectivity from
// the column's uniform range.
func condSelectivity(c BoundCond) float64 {
	col := c.Left.Col
	span := col.Max - col.Min
	if c.Cond.Between {
		lo, hi := c.Cond.Lo, c.Cond.Hi
		if hi < lo {
			return 0
		}
		return clamp01(rangeFrac(col, lo, hi, span))
	}
	v := c.Cond.Value
	switch c.Cond.Op {
	case sqlparse.OpEq:
		return eqSelectivity(c.Left)
	case sqlparse.OpNotEq:
		return clamp01(1 - eqSelectivity(c.Left))
	case sqlparse.OpLt, sqlparse.OpLe:
		if span <= 0 {
			if v >= col.Min {
				return 1
			}
			return 0
		}
		return clamp01((v - col.Min) / span)
	case sqlparse.OpGt, sqlparse.OpGe:
		if span <= 0 {
			if v <= col.Max {
				return 1
			}
			return 0
		}
		return clamp01((col.Max - v) / span)
	default:
		return 1
	}
}

// rangeFrac returns the fraction of the column's span covered by
// [lo, hi], clipped to the column's range.
func rangeFrac(col *catalog.Column, lo, hi, span float64) float64 {
	if span <= 0 {
		if lo <= col.Min && col.Min <= hi {
			return 1
		}
		return 0
	}
	if lo < col.Min {
		lo = col.Min
	}
	if hi > col.Max {
		hi = col.Max
	}
	if hi < lo {
		return 0
	}
	return (hi - lo) / span
}

// eqSelectivity estimates equality selectivity: one row for keys, one
// distinct value otherwise.
func eqSelectivity(bc BoundCol) float64 {
	d := distinct(bc)
	if d <= 0 {
		return 1
	}
	return 1 / d
}

// distinct estimates a column's distinct-value count: row count for
// keys, the integer range width for integer columns (capped at the
// row count), and the row count for floats (effectively all-distinct).
func distinct(bc BoundCol) float64 {
	col, rows := bc.Col, float64(bc.Table.Rows)
	if col.Key {
		return rows
	}
	switch col.Type {
	case catalog.Int64, catalog.Int32, catalog.Int16:
		card := col.Max - col.Min + 1
		if card > rows {
			return rows
		}
		if card < 1 {
			return 1
		}
		return card
	default:
		return rows
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
