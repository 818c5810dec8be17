// Package sqlparse implements a lexer and recursive-descent parser for
// the SQL subset appearing in the paper's SDSS traces: single- and
// multi-table SELECT statements with projections, aggregates, TOP,
// aliases, and conjunctive WHERE clauses of comparisons, BETWEEN
// ranges, and equi-join conditions. Values are numeric — the SDSS
// queries the paper shows filter on identifiers, magnitudes, redshifts
// and classes, all numeric.
//
// The AST round-trips: String() renders a statement that re-parses to
// an equal AST, which the trace format relies on. There is one printer:
// every node's String is its appendText, which appends the node's SQL
// to a byte slice, so a whole statement renders into one stack buffer
// and costs one allocation, its string. Generated statements, the
// proxy's cross-site sub-queries and the engine's aggregate column
// names all print through it.
//
// The reader is table-driven: one 256-entry table classifies every byte
// for the lexer's whitespace, identifier and digit scans, keywords and
// aggregate names are switch statements, and a plain decimal is read
// without strconv. An identifier is lower-cased, at the cost of its
// string, only when it holds an upper-case letter; otherwise it is cut
// from the text, so the generated (lower-case) statements cost no string
// at all. Every statement the proxy mediates and a node serves is read by
// the connection's own Parser, which allocates nothing once its lists
// have grown; Parse, for callers that keep what they read, reads in a
// pooled Parser and copies the statement out at its exact size, four
// allocations at most (TestParseAllocs gates both). FuzzParse holds the
// reader to the map-keyed one it replaced, error offsets included.
package sqlparse

import "strconv"

// AggFunc names an aggregate function, or is empty for a plain column
// projection.
type AggFunc string

// Supported aggregate functions.
const (
	AggNone  AggFunc = ""
	AggCount AggFunc = "count"
	AggSum   AggFunc = "sum"
	AggAvg   AggFunc = "avg"
	AggMin   AggFunc = "min"
	AggMax   AggFunc = "max"
)

// ColRef references a column, optionally qualified by a table name or
// alias.
type ColRef struct {
	// Table is the qualifier (alias or table name); empty when
	// unqualified.
	Table string
	// Column is the column name.
	Column string
}

// String renders the reference in SQL syntax.
func (c ColRef) String() string { return string(c.appendText(make([]byte, 0, 64))) }

func (c ColRef) appendText(b []byte) []byte {
	if c.Table != "" {
		b = append(b, c.Table...)
		b = append(b, '.')
	}
	return append(b, c.Column...)
}

// SelectItem is one projection: a column, a star, or an aggregate.
type SelectItem struct {
	// Agg is the aggregate function, or AggNone.
	Agg AggFunc
	// Star marks `*` (select-all) or `count(*)` when Agg is set.
	Star bool
	// Col is the projected column (unused when Star).
	Col ColRef
	// Alias is the output name from AS, or empty.
	Alias string
}

// String renders the item in SQL syntax.
func (s SelectItem) String() string { return string(s.appendText(make([]byte, 0, 64))) }

func (s SelectItem) appendText(b []byte) []byte {
	switch {
	case s.Agg != AggNone && s.Star:
		b = append(b, s.Agg...)
		b = append(b, "(*)"...)
	case s.Agg != AggNone:
		b = append(b, s.Agg...)
		b = append(b, '(')
		b = s.Col.appendText(b)
		b = append(b, ')')
	case s.Star:
		b = append(b, '*')
	default:
		b = s.Col.appendText(b)
	}
	if s.Alias != "" {
		b = append(b, " as "...)
		b = append(b, s.Alias...)
	}
	return b
}

// TableRef names a table in the FROM clause with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// String renders the reference in SQL syntax.
func (t TableRef) String() string { return string(t.appendText(make([]byte, 0, 64))) }

func (t TableRef) appendText(b []byte) []byte {
	b = append(b, t.Name...)
	if t.Alias != "" {
		b = append(b, ' ')
		b = append(b, t.Alias...)
	}
	return b
}

// CompareOp is a comparison operator.
type CompareOp string

// Supported comparison operators. NotEq renders as <>.
const (
	OpEq    CompareOp = "="
	OpLt    CompareOp = "<"
	OpGt    CompareOp = ">"
	OpLe    CompareOp = "<="
	OpGe    CompareOp = ">="
	OpNotEq CompareOp = "<>"
)

// Condition is one conjunct of the WHERE clause: a comparison against
// a literal, an equi-join comparison against another column, or a
// BETWEEN range.
type Condition struct {
	// Left is the left-hand column.
	Left ColRef
	// Op is the comparison operator (ignored for BETWEEN).
	Op CompareOp
	// RightCol, when non-nil, makes this a column-to-column
	// comparison (a join condition when the columns belong to
	// different tables).
	RightCol *ColRef
	// Value is the literal right-hand side when RightCol is nil and
	// Between is false.
	Value float64
	// Between marks `left BETWEEN Lo AND Hi`.
	Between bool
	// Lo and Hi bound the BETWEEN range.
	Lo, Hi float64
}

// IsJoin reports whether the condition compares two columns of
// different qualifiers with equality.
func (c Condition) IsJoin() bool {
	return c.RightCol != nil && c.Op == OpEq && c.Left.Table != c.RightCol.Table
}

// String renders the condition in SQL syntax.
func (c Condition) String() string { return string(c.appendText(make([]byte, 0, 64))) }

func (c Condition) appendText(b []byte) []byte {
	b = c.Left.appendText(b)
	if c.Between {
		b = append(b, " between "...)
		b = appendNum(b, c.Lo)
		b = append(b, " and "...)
		return appendNum(b, c.Hi)
	}
	b = append(b, ' ')
	b = append(b, c.Op...)
	b = append(b, ' ')
	if c.RightCol != nil {
		return c.RightCol.appendText(b)
	}
	return appendNum(b, c.Value)
}

// OrderSpec is an ORDER BY clause: a column and direction.
type OrderSpec struct {
	// Col is the ordering column.
	Col ColRef
	// Desc selects descending order.
	Desc bool
}

// String renders the clause body in SQL syntax.
func (o OrderSpec) String() string { return string(o.appendText(make([]byte, 0, 64))) }

func (o OrderSpec) appendText(b []byte) []byte {
	b = o.Col.appendText(b)
	if o.Desc {
		b = append(b, " desc"...)
	}
	return b
}

// SelectStmt is a parsed SELECT statement.
type SelectStmt struct {
	// Top limits the result to the first N rows; 0 means no limit.
	Top int64
	// Items lists the projections.
	Items []SelectItem
	// From lists the tables.
	From []TableRef
	// Where lists the conjunctive conditions; empty means no filter.
	Where []Condition
	// GroupBy is the grouping column; nil means no grouping.
	GroupBy *ColRef
	// OrderBy is the ordering spec; nil means unordered.
	OrderBy *OrderSpec
}

// String renders the statement in SQL syntax; the output re-parses to
// an equal AST. The buffer lives on the stack and holds the longest
// statement the workload generator draws, so the string is the one
// allocation.
func (s *SelectStmt) String() string { return string(s.appendText(make([]byte, 0, 512))) }

func (s *SelectStmt) appendText(b []byte) []byte {
	b = append(b, "select "...)
	if s.Top > 0 {
		b = append(b, "top "...)
		b = strconv.AppendInt(b, s.Top, 10)
		b = append(b, ' ')
	}
	for i := range s.Items {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = s.Items[i].appendText(b)
	}
	b = append(b, " from "...)
	for i := range s.From {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = s.From[i].appendText(b)
	}
	for i := range s.Where {
		if i == 0 {
			b = append(b, " where "...)
		} else {
			b = append(b, " and "...)
		}
		b = s.Where[i].appendText(b)
	}
	if s.GroupBy != nil {
		b = append(b, " group by "...)
		b = s.GroupBy.appendText(b)
	}
	if s.OrderBy != nil {
		b = append(b, " order by "...)
		b = s.OrderBy.appendText(b)
	}
	return b
}

// HasAggregate reports whether any projection is an aggregate.
func (s *SelectStmt) HasAggregate() bool {
	for _, it := range s.Items {
		if it.Agg != AggNone {
			return true
		}
	}
	return false
}

// TableByQualifier resolves a qualifier (alias or table name) to its
// TableRef; unqualified references resolve only in single-table
// statements. It returns nil when the qualifier is unknown.
func (s *SelectStmt) TableByQualifier(q string) *TableRef {
	if q == "" {
		if len(s.From) == 1 {
			return &s.From[0]
		}
		return nil
	}
	for i := range s.From {
		if s.From[i].Alias == q || s.From[i].Name == q {
			return &s.From[i]
		}
	}
	return nil
}

// appendNum appends a float the way the lexer accepts, without exponent
// notation for typical magnitudes.
func appendNum(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
