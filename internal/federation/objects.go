// Package federation implements the mediation layer of the paper's
// prototype: it names cacheable database objects (tables, columns or
// materialized views), decomposes each query's yield across the
// objects it references, and
// drives a bypass-yield cache policy with full Figure-1 flow
// accounting.
package federation

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
	"bypassyield/internal/netcost"
)

// Granularity selects the class of cacheable object, the subject of
// the paper's Section 6.1 comparison.
type Granularity uint8

const (
	// Tables caches whole relations.
	Tables Granularity = iota
	// Columns caches individual attributes.
	Columns
	// Views caches materialized views (with whole tables as the
	// fallback for queries no view can answer) — the third object
	// class the paper names.
	Views
)

// String returns the granularity name.
func (g Granularity) String() string {
	switch g {
	case Tables:
		return "tables"
	case Columns:
		return "columns"
	case Views:
		return "views"
	default:
		return fmt.Sprintf("Granularity(%d)", uint8(g))
	}
}

// ParseGranularity parses exactly "tables", "columns" or "views", the
// names String returns.
func ParseGranularity(s string) (Granularity, error) {
	for _, g := range []Granularity{Tables, Columns, Views} {
		if s == g.String() {
			return g, nil
		}
	}
	return 0, fmt.Errorf("federation: unknown granularity %q (have tables, columns, views)", s)
}

// TableObjectID names a table object: "release/table".
func TableObjectID(release, table string) core.ObjectID {
	return core.ObjectID(release + "/" + strings.ToLower(table))
}

// ColumnObjectID names a column object: "release/table.column".
func ColumnObjectID(release, table, column string) core.ObjectID {
	return core.ObjectID(release + "/" + strings.ToLower(table) + "." + strings.ToLower(column))
}

// ViewObjectID names a materialized-view object: "release/view:name".
func ViewObjectID(release, view string) core.ObjectID {
	return core.ObjectID(release + "/view:" + strings.ToLower(view))
}

// Objects builds the cacheable-object universe for a schema at the
// given granularity, with fetch costs from the network model. At
// Views granularity the universe holds every standard view plus every
// table (the fallback for queries no view can answer).
func Objects(s *catalog.Schema, g Granularity, nm *netcost.Model) map[core.ObjectID]core.Object {
	return newObjectIndex(s, s.Name, g, nm).objects()
}

// objectIndex is the object universe of one (schema, release,
// granularity) laid out by position: for every table of the schema and
// every column of the table, the finished object, its weight in a
// yield split and the place of its id in name order. It is built once
// and never modified, so decomposition reads it without a lock and
// without building, lower-casing, hashing or comparing a name. Its
// objects are numbered 1, 2, … in the order they are built (core.Object's
// Slot), so the policy finds their state without hashing a name either.
type objectIndex struct {
	schema  *catalog.Schema
	release string
	gran    Granularity
	tables  []tableEntry // by position in schema.Tables
}

type tableEntry struct {
	// obj is the table object (Tables and Views granularity) and rank
	// the place of the table's name among the schema's, sorted.
	obj  core.Object
	rank int32
	// cols are the column objects by column position (Columns).
	cols []colEntry
	// views are the standard views over the table, in catalog order
	// (Views).
	views []viewEntry
}

type colEntry struct {
	obj   core.Object
	width int64
	// rank is the place of (table name, column name) among all of the
	// schema's columns, sorted.
	rank int32
}

type viewEntry struct {
	obj core.Object
	// cols marks the columns the view carries, by column position; nil
	// means every column of the table.
	cols []bool
	// preds is the view's defining region, one interval per constrained
	// column.
	preds []viewPred
}

type viewPred struct {
	// col is the constrained column's position, or -1 when the view
	// names a column its table lacks (no query region can then lie
	// inside the view's).
	col int
	iv  engine.Interval
}

func newObjectIndex(s *catalog.Schema, release string, g Granularity, nm *netcost.Model) *objectIndex {
	ix := &objectIndex{schema: s, release: release, gran: g, tables: make([]tableEntry, len(s.Tables))}
	var slots int32
	object := func(id core.ObjectID, size int64, site string) core.Object {
		slots++
		return core.Object{ID: id, Size: size, FetchCost: nm.FetchCost(size, site), Site: site, Slot: slots}
	}
	type colPos struct{ table, col int }
	var byName []colPos
	for ti := range s.Tables {
		t := &s.Tables[ti]
		e := &ix.tables[ti]
		for tj := range s.Tables {
			if s.Tables[tj].Name < t.Name {
				e.rank++
			}
		}
		switch g {
		case Tables, Views:
			e.obj = object(TableObjectID(release, t.Name), t.Bytes(), t.Site)
		case Columns:
			e.cols = make([]colEntry, len(t.Columns))
			for ci := range t.Columns {
				c := &t.Columns[ci]
				e.cols[ci] = colEntry{
					obj:   object(ColumnObjectID(release, t.Name, c.Name), c.Width()*t.Rows, t.Site),
					width: c.Width(),
				}
				byName = append(byName, colPos{ti, ci})
			}
		}
	}
	slices.SortFunc(byName, func(a, b colPos) int {
		if c := cmp.Compare(s.Tables[a.table].Name, s.Tables[b.table].Name); c != 0 {
			return c
		}
		return cmp.Compare(s.Tables[a.table].Columns[a.col].Name, s.Tables[b.table].Columns[b.col].Name)
	})
	for rank, p := range byName {
		ix.tables[p.table].cols[p.col].rank = int32(rank)
	}
	if g == Views {
		for _, v := range catalog.StandardViews(s) {
			ti := s.TableIndex(v.Table)
			if ti < 0 {
				continue
			}
			t := &s.Tables[ti]
			ve := viewEntry{obj: object(ViewObjectID(release, v.Name), v.Bytes(t), t.Site)}
			if len(v.Columns) > 0 {
				ve.cols = make([]bool, len(t.Columns))
				for ci := range t.Columns {
					ve.cols[ci] = v.HasColumn(t, t.Columns[ci].Name)
				}
			}
			for _, p := range v.Preds {
				vp := viewPred{col: -1, iv: engine.Interval{Lo: p.Lo, Hi: p.Hi}}
				for ci := range t.Columns {
					if t.Columns[ci].Name == p.Column {
						vp.col = ci
					}
				}
				ve.preds = append(ve.preds, vp)
			}
			ix.tables[ti].views = append(ix.tables[ti].views, ve)
		}
	}
	return ix
}

// each calls f with every object of the index, table by table, and
// returns f's first error.
func (ix *objectIndex) each(f func(core.Object) error) error {
	for ti := range ix.tables {
		e := &ix.tables[ti]
		if ix.gran != Columns {
			if err := f(e.obj); err != nil {
				return err
			}
		}
		for ci := range e.cols {
			if err := f(e.cols[ci].obj); err != nil {
				return err
			}
		}
		for vi := range e.views {
			if err := f(e.views[vi].obj); err != nil {
				return err
			}
		}
	}
	return nil
}

// objects lists the index as the id-keyed universe.
func (ix *objectIndex) objects() map[core.ObjectID]core.Object {
	out := make(map[core.ObjectID]core.Object)
	ix.each(func(o core.Object) error {
		out[o.ID] = o
		return nil
	})
	return out
}

// viewFor returns the smallest standard view able to answer the
// query's demands on FROM table tableIdx — every referenced column
// present and the query region contained in the view's region — or nil
// when only the base table can.
func (ix *objectIndex) viewFor(b *engine.Bound, tableIdx int) *viewEntry {
	views := ix.tables[b.TablePos[tableIdx]].views
	var best *viewEntry
candidates:
	for vi := range views {
		v := &views[vi]
		if v.cols != nil {
			for _, r := range b.ReferencedColumns() {
				if r.TableIdx == tableIdx && !v.cols[r.Pos] {
					continue candidates
				}
			}
		}
		for _, p := range v.preds {
			if p.col < 0 {
				continue candidates
			}
			in, constrained := b.ColumnInterval(tableIdx, p.col)
			if !constrained || !p.iv.Contains(in) {
				continue candidates
			}
		}
		if best == nil || v.obj.Size < best.obj.Size {
			best = v
		}
	}
	return best
}

// share is one object's part of a query's yield while Decompose works
// it out.
type share struct {
	obj    *core.Object
	weight int64
	rem    int64 // yield·weight mod Σ weights
	yield  int64
	table  int32 // position of the object's table in the schema
	rank   int32 // place of the object's id in name order
	pos    int32 // place in the access list
}

// shareOf finds the share of the table at schema position tp.
func shareOf(sh []share, tp int) *share {
	for k := range sh {
		if int(sh[k].table) == tp {
			return &sh[k]
		}
	}
	return nil
}

// shareBuf holds the shares of a statement touching the usual dozen or
// two objects on the caller's stack; a wider statement grows it on the
// heap.
type shareBuf [32]share

// shares splits a query's yield across the objects it references,
// following Section 6 of the paper:
//
//   - Tables: "yield for each table ... is divided in proportion to
//     the table's contribution to the unique attributes in the query"
//     — each table's share is its count of distinct referenced
//     columns over the total.
//   - Columns: "query yield is proportional to each attribute based
//     on a ratio of storage size of the attribute to the total
//     storage sizes of all columns referenced in the query".
//   - Views: as Tables, each table served by the smallest view that
//     can answer the statement's demands on it.
//
// Shares are integer bytes distributed by largest remainder so they
// sum exactly to the yield (byte conservation is tested). Accesses are
// ordered by object id (share.pos); the returned slice is not.
func (ix *objectIndex) shares(b *engine.Bound, yield int64, sh []share) []share {
	return split(ix.weigh(b, sh), yield)
}

// weigh is the first half of shares, which needs the Bound alone: the
// objects the statement reads, each with its weight, appended to sh in
// no particular order.
func (ix *objectIndex) weigh(b *engine.Bound, sh []share) []share {
	refs := b.ReferencedColumns()
	if len(refs) == 0 {
		return nil
	}
	if ix.gran == Columns {
		for i := range refs {
			tp := b.TablePos[refs[i].TableIdx]
			c := &ix.tables[tp].cols[refs[i].Pos]
			sh = append(sh, share{obj: &c.obj, weight: c.width, table: int32(tp), rank: c.rank})
		}
	} else {
		// One share per distinct FROM table, weighing its referenced
		// columns.
		for _, tp := range b.TablePos {
			if shareOf(sh, tp) == nil {
				e := &ix.tables[tp]
				sh = append(sh, share{obj: &e.obj, table: int32(tp), rank: e.rank})
			}
		}
		for i := range refs {
			shareOf(sh, b.TablePos[refs[i].TableIdx]).weight++
		}
		if ix.gran == Views {
			// A table joined to itself is served by what answers its
			// last alias.
			for i, tp := range b.TablePos {
				s := shareOf(sh, tp)
				if s.weight == 0 {
					continue
				}
				s.obj = &ix.tables[tp].obj
				if v := ix.viewFor(b, i); v != nil {
					s.obj = &v.obj
				}
			}
		}
		sh = slices.DeleteFunc(sh, func(s share) bool { return s.weight == 0 })
	}
	return sh
}

// split is the second half of shares: it orders weighed shares by
// object id and gives each its part of the yield.
func split(sh []share, yield int64) []share {
	if yield < 0 {
		return nil
	}
	slices.SortFunc(sh, func(a, b share) int { return cmp.Compare(a.rank, b.rank) })

	var total, assigned int64
	for i := range sh {
		total += sh[i].weight
	}
	if total == 0 {
		return nil
	}
	for i := range sh {
		v := yield * sh[i].weight
		sh[i].yield, sh[i].rem, sh[i].pos = v/total, v%total, int32(i)
		assigned += sh[i].yield
	}
	// Largest-remainder distribution of the leftover bytes, one each in
	// turn; equal remainders go in access order.
	if left := yield - assigned; left > 0 {
		slices.SortFunc(sh, func(a, b share) int {
			if c := cmp.Compare(b.rem, a.rem); c != 0 {
				return c
			}
			return cmp.Compare(a.pos, b.pos)
		})
		n := int64(len(sh))
		for i := range sh {
			sh[i].yield += left / n
			if int64(i) < left%n {
				sh[i].yield++
			}
		}
	}
	return sh
}

// access is one decomposed access as the mediator decides it: the
// object (the index's own, immutable), the position of its table in
// the schema, and its share of the yield.
type access struct {
	obj   *core.Object
	table int
	yield int64
}

// weighIn is weigh in sc's memory. There is a share per referenced
// column or per FROM table, so the list is sized once.
func (ix *objectIndex) weighIn(sc *Scratch, b *engine.Bound) []share {
	n := len(b.TablePos)
	if ix.gran == Columns {
		n = len(b.ReferencedColumns())
	}
	if cap(sc.shares) < n {
		sc.shares = make([]share, 0, n)
	}
	return ix.weigh(b, sc.shares[:0])
}

// accesses finishes what weighIn began: Decompose's accesses in the same
// order, each with its resolved object, in sc's memory.
func (sc *Scratch) accesses(sh []share, yield int64) []access {
	sh = split(sh, yield)
	out := take(&sc.accs, len(sh))
	for i := range sh {
		out[sh[i].pos] = access{obj: sh[i].obj, table: int(sh[i].table), yield: sh[i].yield}
	}
	return out
}

// Decompose splits a query's yield across the objects it references
// (see shares) and returns one access per object, ordered by object
// id. b must be bound against the schema of the named release.
func Decompose(b *engine.Bound, release string, yield int64, g Granularity) []core.Access {
	var buf shareBuf
	sh := indexFor(b.Schema, release, g).shares(b, yield, buf[:0])
	if len(sh) == 0 {
		return nil
	}
	out := make([]core.Access, len(sh))
	for i := range sh {
		out[sh[i].pos] = core.Access{Object: sh[i].obj.ID, Yield: sh[i].yield}
	}
	return out
}

// indexes keeps the index Decompose last built for each (schema,
// release, granularity) it was called with, so a caller without a
// mediator pays for the build once. Readers scan an immutable list;
// maxIndexes bounds it (a process decomposes for a handful of schemas;
// a test suite opening hundreds must not pin them all).
var indexes struct {
	mu   sync.Mutex
	list atomic.Pointer[[]*objectIndex]
}

const maxIndexes = 16

func indexFor(s *catalog.Schema, release string, g Granularity) *objectIndex {
	find := func() *objectIndex {
		if l := indexes.list.Load(); l != nil {
			for _, ix := range *l {
				if ix.schema == s && ix.gran == g && ix.release == release {
					return ix
				}
			}
		}
		return nil
	}
	if ix := find(); ix != nil {
		return ix
	}
	indexes.mu.Lock()
	defer indexes.mu.Unlock()
	if ix := find(); ix != nil {
		return ix
	}
	ix := newObjectIndex(s, release, g, nil)
	var next []*objectIndex
	if l := indexes.list.Load(); l != nil {
		next = append(next, *l...)
		if len(next) >= maxIndexes {
			next = next[1:]
		}
	}
	next = append(next, ix)
	indexes.list.Store(&next)
	return ix
}
