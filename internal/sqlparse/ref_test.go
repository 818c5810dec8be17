package sqlparse

import (
	"fmt"
	"strconv"
	"strings"
)

// refString is the fmt-based rendering the append printer replaced,
// kept as the reference FuzzParse holds String to, byte for byte.
func refString(s *SelectStmt) string {
	var b strings.Builder
	b.WriteString("select ")
	if s.Top > 0 {
		fmt.Fprintf(&b, "top %d ", s.Top)
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(refItem(it))
	}
	b.WriteString(" from ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		if t.Alias == "" {
			b.WriteString(t.Name)
		} else {
			b.WriteString(t.Name + " " + t.Alias)
		}
	}
	if len(s.Where) > 0 {
		b.WriteString(" where ")
		for i, c := range s.Where {
			if i > 0 {
				b.WriteString(" and ")
			}
			b.WriteString(refCond(c))
		}
	}
	if s.GroupBy != nil {
		b.WriteString(" group by ")
		b.WriteString(refCol(*s.GroupBy))
	}
	if s.OrderBy != nil {
		b.WriteString(" order by ")
		b.WriteString(refCol(s.OrderBy.Col))
		if s.OrderBy.Desc {
			b.WriteString(" desc")
		}
	}
	return b.String()
}

func refCol(c ColRef) string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

func refItem(s SelectItem) string {
	var b strings.Builder
	switch {
	case s.Agg != AggNone && s.Star:
		fmt.Fprintf(&b, "%s(*)", s.Agg)
	case s.Agg != AggNone:
		fmt.Fprintf(&b, "%s(%s)", s.Agg, refCol(s.Col))
	case s.Star:
		b.WriteString("*")
	default:
		b.WriteString(refCol(s.Col))
	}
	if s.Alias != "" {
		b.WriteString(" as ")
		b.WriteString(s.Alias)
	}
	return b.String()
}

func refCond(c Condition) string {
	if c.Between {
		return fmt.Sprintf("%s between %s and %s", refCol(c.Left), refNum(c.Lo), refNum(c.Hi))
	}
	if c.RightCol != nil {
		return fmt.Sprintf("%s %s %s", refCol(c.Left), c.Op, refCol(*c.RightCol))
	}
	return fmt.Sprintf("%s %s %s", refCol(c.Left), c.Op, refNum(c.Value))
}

func refNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
