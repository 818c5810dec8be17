// Package semcache implements a semantic (query-result) cache with
// containment matching, the alternative Section 6.1 of the paper
// weighs and rejects for astronomy workloads: "Semantic caching is
// attractive for database federations because it preserves their
// filtering benefits... However, we find that astronomy workloads do
// not exhibit query reuse and query containment upon which semantic
// caching relies."
//
// The cache stores the results of single-table selection queries. A
// new query is a hit when some cached entry can answer it: same
// table, the entry projects every column the query needs (projected
// or filtered), and the query's predicate region is contained in the
// entry's region, so the answer can be computed by filtering the
// cached result. Full containment checking is NP-complete for
// conjunctive queries (Chandra & Merlin); for this SQL subset —
// conjunctions of per-column intervals — region containment is exact
// and cheap.
//
// This package exists to regenerate the paper's negative result: on
// the synthesized SDSS workloads the hit rate is negligible (see the
// xsem experiment), which is precisely why bypass-yield caching works
// at the granularity of schema elements instead.
package semcache

import (
	"math"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/sqlparse"
)

// entry is one cached query result.
type entry struct {
	table string
	// cols are the columns materialized in the cached result.
	cols map[string]bool
	// region maps column name → interval; absent columns are
	// unconstrained.
	region map[string]engine.Interval
	bytes  int64
	last   int64
}

// Cache is a semantic query cache with LRU eviction.
type Cache struct {
	schema    *catalog.Schema
	capacity  int64
	used      int64
	entries   []*entry
	hits      int64
	misses    int64
	rejected  int64 // queries outside the cacheable subset
	evictions int64
}

// New returns a semantic cache of the given byte capacity over a
// schema.
func New(s *catalog.Schema, capacity int64) *Cache {
	return &Cache{schema: s, capacity: capacity}
}

// Stats reports hit/miss/rejected counts and evictions.
func (c *Cache) Stats() (hits, misses, rejected, evictions int64) {
	return c.hits, c.misses, c.rejected, c.evictions
}

// Used reports the bytes of cached results.
func (c *Cache) Used() int64 { return c.used }

// Len reports the number of cached results.
func (c *Cache) Len() int { return len(c.entries) }

// Query presents one statement with its result size and returns the
// decision: Hit when a cached result answers it (zero WAN traffic),
// Bypass otherwise (the result ships from the server and, if the
// query is cacheable, is admitted).
func (c *Cache) Query(t int64, stmt *sqlparse.SelectStmt, resultBytes int64) core.Decision {
	q, ok := c.describe(stmt)
	if !ok {
		c.rejected++
		return core.Bypass
	}
	for _, e := range c.entries {
		if e.answers(q) {
			e.last = t
			c.hits++
			return core.Hit
		}
	}
	c.misses++
	c.admit(t, q, resultBytes)
	return core.Bypass
}

// describe normalizes a statement into a cacheable entry descriptor;
// ok is false for statements outside the cacheable subset (joins,
// aggregates, TOP, star over unknown schema, column-column
// predicates).
func (c *Cache) describe(stmt *sqlparse.SelectStmt) (*entry, bool) {
	if len(stmt.From) != 1 || stmt.Top > 0 || stmt.HasAggregate() ||
		stmt.GroupBy != nil || stmt.OrderBy != nil {
		return nil, false
	}
	tab := c.schema.Table(stmt.From[0].Name)
	if tab == nil {
		return nil, false
	}
	e := &entry{
		table:  tab.Name,
		cols:   make(map[string]bool),
		region: make(map[string]engine.Interval),
	}
	for _, item := range stmt.Items {
		if item.Star {
			for i := range tab.Columns {
				e.cols[tab.Columns[i].Name] = true
			}
			continue
		}
		if tab.Column(item.Col.Column) == nil {
			return nil, false
		}
		e.cols[item.Col.Column] = true
	}
	for _, cond := range stmt.Where {
		if cond.RightCol != nil {
			return nil, false
		}
		col := tab.Column(cond.Left.Column)
		if col == nil {
			return nil, false
		}
		iv := engine.ConditionInterval(cond, col)
		if prev, ok := e.region[col.Name]; ok {
			iv = engine.Interval{Lo: math.Max(iv.Lo, prev.Lo), Hi: math.Min(iv.Hi, prev.Hi)}
		}
		e.region[col.Name] = iv
		// The cached result must carry filter columns so contained
		// queries can be answered by re-filtering.
		e.cols[col.Name] = true
	}
	return e, true
}

// answers reports whether the entry can serve the query: same table,
// superset of needed columns, and the query's region contained in the
// entry's region.
func (e *entry) answers(q *entry) bool {
	if e.table != q.table {
		return false
	}
	for col := range q.cols {
		if !e.cols[col] {
			return false
		}
	}
	// Every constraint the entry applied must be at least as loose as
	// the query's constraint on that column; otherwise the entry's
	// result is missing rows the query needs.
	return engine.RegionContains(e.region, q.region)
}

// admit stores a query's result, evicting least-recently-used entries
// to fit. Results larger than the whole cache are not admitted.
func (c *Cache) admit(t int64, q *entry, bytes int64) {
	if bytes <= 0 || bytes > c.capacity {
		return
	}
	q.bytes = bytes
	q.last = t
	for c.used+bytes > c.capacity {
		c.evictLRU()
	}
	c.entries = append(c.entries, q)
	c.used += bytes
}

func (c *Cache) evictLRU() {
	oldest := -1
	for i, e := range c.entries {
		if oldest < 0 || e.last < c.entries[oldest].last {
			oldest = i
		}
	}
	if oldest < 0 {
		return
	}
	c.used -= c.entries[oldest].bytes
	c.entries = append(c.entries[:oldest], c.entries[oldest+1:]...)
	c.evictions++
}
