// Package catalog defines the federation's schema metadata: tables,
// typed columns with byte widths, logical row counts, and site
// placement, modeled on the Sloan Digital Sky Survey schema used by
// the paper's SkyQuery evaluation.
//
// The catalog carries two kinds of size information. Logical sizes
// (Rows × row width) drive all cache economics — object sizes, fetch
// costs, and yields are computed at logical scale, exactly as the
// paper accounts network traffic. The engine package materializes a
// sampled fraction of the rows for actual execution; sampling never
// distorts the byte accounting because yields are scaled back to
// logical size.
package catalog

import (
	"fmt"
	"sort"
	"strings"
)

// Type is a column's value type.
type Type uint8

const (
	// Int64 is an 8-byte integer (SDSS bigint: objID, specObjID, ...).
	Int64 Type = iota
	// Int32 is a 4-byte integer.
	Int32
	// Int16 is a 2-byte integer.
	Int16
	// Float64 is an 8-byte float (SDSS float: ra, dec, ...).
	Float64
	// Float32 is a 4-byte float (SDSS real: magnitudes, errors, ...).
	Float32
)

// Width returns the storage width of the type in bytes.
func (t Type) Width() int64 {
	switch t {
	case Int64, Float64:
		return 8
	case Int32, Float32:
		return 4
	case Int16:
		return 2
	default:
		return 0
	}
}

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Int64:
		return "bigint"
	case Int32:
		return "int"
	case Int16:
		return "smallint"
	case Float64:
		return "float"
	case Float32:
		return "real"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column describes one attribute: its type and the value range used
// both to synthesize data and to estimate predicate selectivity
// (values are uniform over [Min, Max] unless Key is set).
type Column struct {
	// Name is the column name, lower-case.
	Name string
	// Type determines the storage width.
	Type Type
	// Min and Max bound the value range for synthesis and
	// selectivity estimation.
	Min, Max float64
	// Key marks a unique, sequential identifier column (objID);
	// equality predicates on key columns select a single row.
	Key bool
}

// Width returns the column's storage width in bytes.
func (c *Column) Width() int64 { return c.Type.Width() }

// Table describes a relation: its columns, logical row count, and the
// federation site that owns it.
type Table struct {
	// Name is the table name, lower-case.
	Name string
	// Columns lists the attributes in schema order.
	Columns []Column
	// Rows is the logical row count (full-scale, not sampled).
	Rows int64
	// Site names the owning federation site.
	Site string
}

// ColumnIndex returns the named column's position in Columns, or -1 if
// absent. Lookup is case-insensitive.
func (t *Table) ColumnIndex(name string) int {
	name = strings.ToLower(name)
	for i := range t.Columns {
		if t.Columns[i].Name == name {
			return i
		}
	}
	return -1
}

// Column returns the named column, or nil if absent. Lookup is
// case-insensitive.
func (t *Table) Column(name string) *Column {
	if i := t.ColumnIndex(name); i >= 0 {
		return &t.Columns[i]
	}
	return nil
}

// RowWidth returns the byte width of one row.
func (t *Table) RowWidth() int64 {
	var w int64
	for i := range t.Columns {
		w += t.Columns[i].Width()
	}
	return w
}

// Bytes returns the table's logical size in bytes.
func (t *Table) Bytes() int64 { return t.Rows * t.RowWidth() }

// Schema is a data release: a named, versioned set of tables.
type Schema struct {
	// Name identifies the release ("edr", "dr1").
	Name string
	// Tables lists the relations.
	Tables []Table
}

// TableIndex returns the named table's position in Tables, or -1 if
// absent. Lookup is case-insensitive.
func (s *Schema) TableIndex(name string) int {
	name = strings.ToLower(name)
	for i := range s.Tables {
		if s.Tables[i].Name == name {
			return i
		}
	}
	return -1
}

// Table returns the named table, or nil if absent. Lookup is
// case-insensitive.
func (s *Schema) Table(name string) *Table {
	if i := s.TableIndex(name); i >= 0 {
		return &s.Tables[i]
	}
	return nil
}

// TotalBytes returns the release's total logical size.
func (s *Schema) TotalBytes() int64 {
	var b int64
	for i := range s.Tables {
		b += s.Tables[i].Bytes()
	}
	return b
}

// Validate checks structural well-formedness: non-empty unique table
// and column names, positive rows, sane ranges, at most one key per
// table.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("catalog: schema has empty name")
	}
	seenT := make(map[string]bool)
	for i := range s.Tables {
		t := &s.Tables[i]
		if t.Name == "" {
			return fmt.Errorf("catalog: schema %s has a table with empty name", s.Name)
		}
		if seenT[t.Name] {
			return fmt.Errorf("catalog: duplicate table %s", t.Name)
		}
		seenT[t.Name] = true
		if t.Rows <= 0 {
			return fmt.Errorf("catalog: table %s has non-positive rows", t.Name)
		}
		if t.Site == "" {
			return fmt.Errorf("catalog: table %s has no site", t.Name)
		}
		if len(t.Columns) == 0 {
			return fmt.Errorf("catalog: table %s has no columns", t.Name)
		}
		seenC := make(map[string]bool)
		keys := 0
		for j := range t.Columns {
			c := &t.Columns[j]
			if c.Name == "" {
				return fmt.Errorf("catalog: table %s has a column with empty name", t.Name)
			}
			if seenC[c.Name] {
				return fmt.Errorf("catalog: duplicate column %s.%s", t.Name, c.Name)
			}
			seenC[c.Name] = true
			if c.Width() == 0 {
				return fmt.Errorf("catalog: column %s.%s has invalid type", t.Name, c.Name)
			}
			if c.Max < c.Min {
				return fmt.Errorf("catalog: column %s.%s has Max < Min", t.Name, c.Name)
			}
			if c.Key {
				keys++
			}
		}
		if keys > 1 {
			return fmt.Errorf("catalog: table %s has %d key columns, want at most 1", t.Name, keys)
		}
	}
	return nil
}

// SiteSchema returns the subset of a release owned by one site, with
// the same release name. Database nodes open engines over their site
// schema so they only materialize their own tables; because data
// synthesis is seeded per (seed, table, column), a site subset holds
// exactly the same values as the corresponding tables of a full
// instance.
func SiteSchema(s *Schema, site string) *Schema {
	sub := &Schema{Name: s.Name}
	for i := range s.Tables {
		if s.Tables[i].Site == site {
			sub.Tables = append(sub.Tables, s.Tables[i])
		}
	}
	return sub
}

// Sites returns the distinct site names of a release, sorted.
func Sites(s *Schema) []string {
	seen := map[string]bool{}
	var out []string
	for i := range s.Tables {
		if !seen[s.Tables[i].Site] {
			seen[s.Tables[i].Site] = true
			out = append(out, s.Tables[i].Site)
		}
	}
	sort.Strings(out)
	return out
}
