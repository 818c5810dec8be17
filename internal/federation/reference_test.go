package federation

import (
	"math"
	"sort"

	"bypassyield/internal/catalog"
	"bypassyield/internal/core"
	"bypassyield/internal/engine"
)

// The reference decomposition: the implementation Decompose replaced,
// kept as the specification it is held to access for access. It works
// on names throughout — referenced columns de-duplicated by a
// "table.column" key, object ids built per statement, shares ordered
// by sorting names — and reads nothing from the position index.

// referenceColumns returns every distinct (table, column) pair the
// statement touches, de-duplicated by name, in first-reference order.
func referenceColumns(b *engine.Bound) []engine.BoundCol {
	seen := make(map[string]bool)
	var out []engine.BoundCol
	add := func(bc engine.BoundCol) {
		if bc.Col == nil {
			return
		}
		k := bc.Table.Name + "." + bc.Col.Name
		if !seen[k] {
			seen[k] = true
			out = append(out, bc)
		}
	}
	if b.Star {
		for i, t := range b.Tables {
			for j := range t.Columns {
				add(engine.BoundCol{TableIdx: i, Table: t, Col: &t.Columns[j], Pos: j})
			}
		}
	}
	for _, p := range b.Projs {
		add(p)
	}
	for _, c := range b.Conds {
		add(c.Left)
		if c.Right.Col != nil {
			add(c.Right)
		}
	}
	if b.GroupBy != nil {
		add(*b.GroupBy)
	}
	if b.OrderBy != nil {
		add(*b.OrderBy)
	}
	return out
}

// referenceRegion returns the per-column intervals the statement's
// literal predicates imply for one FROM table, keyed by column name;
// multiple predicates on one column intersect.
func referenceRegion(b *engine.Bound, tableIdx int) map[string]engine.Interval {
	region := make(map[string]engine.Interval)
	for _, c := range b.Conds {
		if c.Right.Col != nil || c.Left.TableIdx != tableIdx {
			continue
		}
		iv := engine.ConditionInterval(c.Cond, c.Left.Col)
		if prev, ok := region[c.Left.Col.Name]; ok {
			iv = engine.Interval{Lo: math.Max(iv.Lo, prev.Lo), Hi: math.Min(iv.Hi, prev.Hi)}
		}
		region[c.Left.Col.Name] = iv
	}
	return region
}

// referenceViewFor returns the smallest standard view able to answer
// the query's demands on table i, or nil when only the base table can.
func referenceViewFor(s *catalog.Schema, b *engine.Bound, tableIdx int) *catalog.View {
	t := b.Tables[tableIdx]
	region := referenceRegion(b, tableIdx)
	var best *catalog.View
	var bestBytes int64
	views := catalog.StandardViews(s)
	for i := range views {
		v := &views[i]
		if v.Table != t.Name {
			continue
		}
		ok := true
		for _, r := range referenceColumns(b) {
			if r.TableIdx != tableIdx || r.Col == nil {
				continue
			}
			if !v.HasColumn(t, r.Col.Name) {
				ok = false
				break
			}
		}
		viewRegion := make(map[string]engine.Interval, len(v.Preds))
		for _, p := range v.Preds {
			viewRegion[p.Column] = engine.Interval{Lo: p.Lo, Hi: p.Hi}
		}
		if !ok || !engine.RegionContains(viewRegion, region) {
			continue
		}
		if bytes := v.Bytes(t); best == nil || bytes < bestBytes {
			best = v
			bestBytes = bytes
		}
	}
	return best
}

func referenceDecompose(b *engine.Bound, release string, yield int64, g Granularity) []core.Access {
	refs := referenceColumns(b)
	if len(refs) == 0 || yield < 0 {
		return nil
	}
	type share struct {
		id     core.ObjectID
		weight int64
	}
	var shares []share
	switch g {
	case Tables, Views:
		counts := make(map[string]int64)         // table name → attribute count
		objIDs := make(map[string]core.ObjectID) // table name → serving object
		for _, r := range refs {
			counts[r.Table.Name]++
		}
		for i, t := range b.Tables {
			if _, ok := counts[t.Name]; !ok {
				continue
			}
			objIDs[t.Name] = TableObjectID(release, t.Name)
			if g == Views {
				if v := referenceViewFor(b.Schema, b, i); v != nil {
					objIDs[t.Name] = ViewObjectID(release, v.Name)
				}
			}
		}
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			id, ok := objIDs[name]
			if !ok {
				id = TableObjectID(release, name)
			}
			shares = append(shares, share{id, counts[name]})
		}
	case Columns:
		sorted := make([]engine.BoundCol, len(refs))
		copy(sorted, refs)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Table.Name != sorted[j].Table.Name {
				return sorted[i].Table.Name < sorted[j].Table.Name
			}
			return sorted[i].Col.Name < sorted[j].Col.Name
		})
		for _, r := range sorted {
			shares = append(shares, share{ColumnObjectID(release, r.Table.Name, r.Col.Name), r.Col.Width()})
		}
	}

	var total int64
	for _, s := range shares {
		total += s.weight
	}
	if total == 0 {
		return nil
	}
	accesses := make([]core.Access, len(shares))
	var assigned int64
	type rem struct {
		idx int
		rem int64
	}
	rems := make([]rem, len(shares))
	for i, s := range shares {
		v := yield * s.weight
		accesses[i] = core.Access{Object: s.id, Yield: v / total}
		assigned += v / total
		rems[i] = rem{i, v % total}
	}
	// Largest-remainder distribution of the leftover bytes; ties
	// break by slice order (already deterministic).
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].rem > rems[j].rem })
	for i := int64(0); i < yield-assigned; i++ {
		accesses[rems[int(i)%len(rems)].idx].Yield++
	}
	return accesses
}
