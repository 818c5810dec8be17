package sqlparse_test

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"bypassyield/internal/sqlparse"
)

// This file keeps the references FuzzParse holds the package to: the
// fmt-based printer the append printer replaced (refString), and the
// map-keyed lexer and parser the table-driven ones replaced (refParse),
// each as it was, so that String renders byte for byte, and Parse
// accepts, refuses with the same message at the same offset, and reads
// the same statement, as they did.

// refString is the fmt-based rendering of a statement.
func refString(s *sqlparse.SelectStmt) string {
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

func refCol(c sqlparse.ColRef) string {
	if c.Table == "" {
		return c.Column
	}
	return c.Table + "." + c.Column
}

func refItem(s sqlparse.SelectItem) string {
	var b strings.Builder
	switch {
	case s.Agg != sqlparse.AggNone && s.Star:
		fmt.Fprintf(&b, "%s(*)", s.Agg)
	case s.Agg != sqlparse.AggNone:
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

func refCond(c sqlparse.Condition) string {
	if c.Between {
		return fmt.Sprintf("%s between %s and %s", refCol(c.Left), refNum(c.Lo), refNum(c.Hi))
	}
	if c.RightCol != nil {
		return fmt.Sprintf("%s %s %s", refCol(c.Left), c.Op, refCol(*c.RightCol))
	}
	return fmt.Sprintf("%s %s %s", refCol(c.Left), c.Op, refNum(c.Value))
}

func refNum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// refParse parses one statement as the map-keyed parser did: a new
// parser's statement, copied out with the columns it points to.
func refParse(sql string) (*sqlparse.SelectStmt, error) {
	var p refParser
	parsed, err := p.Parse(sql)
	if err != nil {
		return nil, err
	}
	stmt := *parsed
	if stmt.GroupBy != nil {
		col := *stmt.GroupBy
		stmt.GroupBy = &col
	}
	if stmt.OrderBy != nil {
		spec := *stmt.OrderBy
		stmt.OrderBy = &spec
	}
	return &stmt, nil
}

type refTokenKind uint8

const (
	tokEOF refTokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokOp // = < > <= >= <> !=
)

type refToken struct {
	kind refTokenKind
	text string
	pos  int
}

type refLexer struct {
	src string
	pos int
}

func (l *refLexer) errorf(pos int, format string, args ...any) error {
	return &sqlparse.SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

func (l *refLexer) next() (refToken, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return refToken{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	ch := l.src[l.pos]
	switch {
	case ch == ',':
		l.pos++
		return refToken{tokComma, ",", start}, nil
	case ch == '.':
		l.pos++
		return refToken{tokDot, ".", start}, nil
	case ch == '(':
		l.pos++
		return refToken{tokLParen, "(", start}, nil
	case ch == ')':
		l.pos++
		return refToken{tokRParen, ")", start}, nil
	case ch == '*':
		l.pos++
		return refToken{tokStar, "*", start}, nil
	case ch == '=':
		l.pos++
		return refToken{tokOp, "=", start}, nil
	case ch == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
			return refToken{tokOp, l.src[start:l.pos], start}, nil
		}
		return refToken{tokOp, "<", start}, nil
	case ch == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return refToken{tokOp, ">=", start}, nil
		}
		return refToken{tokOp, ">", start}, nil
	case ch == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return refToken{tokOp, "<>", start}, nil // normalize != to <>
		}
		return refToken{}, l.errorf(start, "unexpected character %q", ch)
	case ch == '-' || ch == '+' || refIsDigit(ch):
		return l.lexNumber()
	case refIsIdentStart(ch):
		for l.pos < len(l.src) && refIsIdentPart(l.src[l.pos]) {
			l.pos++
		}
		return refToken{tokIdent, strings.ToLower(l.src[start:l.pos]), start}, nil
	default:
		return refToken{}, l.errorf(start, "unexpected character %q", ch)
	}
}

func (l *refLexer) lexNumber() (refToken, error) {
	start := l.pos
	if l.src[l.pos] == '-' || l.src[l.pos] == '+' {
		l.pos++
	}
	digits := 0
	for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
		l.pos++
		digits++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' {
		l.pos++
		for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
			l.pos++
			digits++
		}
	}
	if digits == 0 {
		return refToken{}, l.errorf(start, "malformed number")
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '-' || l.src[l.pos] == '+') {
			l.pos++
		}
		expDigits := 0
		for l.pos < len(l.src) && refIsDigit(l.src[l.pos]) {
			l.pos++
			expDigits++
		}
		if expDigits == 0 {
			l.pos = save
		}
	}
	return refToken{tokNumber, l.src[start:l.pos], start}, nil
}

func refIsDigit(ch byte) bool { return ch >= '0' && ch <= '9' }

func refIsIdentStart(ch byte) bool {
	return ch == '_' || (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z')
}

func refIsIdentPart(ch byte) bool { return refIsIdentStart(ch) || refIsDigit(ch) }

type refParser struct {
	lex refLexer
	tok refToken
	err error

	stmt    sqlparse.SelectStmt
	items   []sqlparse.SelectItem
	from    []sqlparse.TableRef
	where   []sqlparse.Condition
	right   []sqlparse.ColRef
	groupBy sqlparse.ColRef
	orderBy sqlparse.OrderSpec
}

func (p *refParser) Parse(sql string) (*sqlparse.SelectStmt, error) {
	p.lex, p.tok, p.err = refLexer{src: sql}, refToken{}, nil
	p.advance()
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.tok.text)
	}
	return stmt, nil
}

func (p *refParser) advance() {
	if p.err != nil {
		return
	}
	p.tok, p.err = p.lex.next()
}

func (p *refParser) errorf(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return p.lex.errorf(p.tok.pos, format, args...)
}

func (p *refParser) expectKeyword(kw string) error {
	if p.tok.kind != tokIdent || p.tok.text != kw {
		return p.errorf("expected %q, got %q", kw, p.tok.text)
	}
	p.advance()
	return p.err
}

func (p *refParser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && p.tok.text == kw
}

var refReserved = map[string]bool{
	"select": true, "from": true, "where": true, "and": true,
	"between": true, "as": true, "top": true,
	"group": true, "order": true, "by": true, "asc": true, "desc": true,
}

func (p *refParser) parseSelect() (*sqlparse.SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &p.stmt
	*stmt = sqlparse.SelectStmt{}
	if p.isKeyword("top") {
		p.advance()
		if p.tok.kind != tokNumber {
			return nil, p.errorf("expected number after TOP, got %q", p.tok.text)
		}
		n, err := strconv.ParseInt(p.tok.text, 10, 64)
		if err != nil || n <= 0 {
			return nil, p.errorf("invalid TOP count %q", p.tok.text)
		}
		stmt.Top = n
		p.advance()
	}
	items := p.items[:0]
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, item)
		if p.tok.kind != tokComma {
			break
		}
		p.advance()
	}
	p.items, stmt.Items = items, items
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	from := p.from[:0]
	for {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		from = append(from, tr)
		if p.tok.kind != tokComma {
			break
		}
		p.advance()
	}
	p.from, stmt.From = from, from
	if p.isKeyword("where") {
		p.advance()
		where := p.where[:0]
		p.right = p.right[:0]
		for {
			cond, err := p.parseCondition()
			if err != nil {
				return nil, err
			}
			where = append(where, cond)
			if !p.isKeyword("and") {
				break
			}
			p.advance()
		}
		p.where, stmt.Where = where, where
	}
	if p.isKeyword("group") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		p.groupBy = col
		stmt.GroupBy = &p.groupBy
	}
	if p.isKeyword("order") {
		p.advance()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		col, err := p.parseColRef()
		if err != nil {
			return nil, err
		}
		spec := &p.orderBy
		*spec = sqlparse.OrderSpec{Col: col}
		if p.isKeyword("desc") {
			spec.Desc = true
			p.advance()
		} else if p.isKeyword("asc") {
			p.advance()
		}
		stmt.OrderBy = spec
	}
	return stmt, p.err
}

var refAggFuncs = map[string]sqlparse.AggFunc{
	"count": sqlparse.AggCount, "sum": sqlparse.AggSum, "avg": sqlparse.AggAvg, "min": sqlparse.AggMin, "max": sqlparse.AggMax,
}

func (p *refParser) parseSelectItem() (sqlparse.SelectItem, error) {
	var item sqlparse.SelectItem
	if p.tok.kind == tokStar {
		p.advance()
		item.Star = true
		return item, p.err
	}
	if p.tok.kind != tokIdent {
		return item, p.errorf("expected projection, got %q", p.tok.text)
	}
	if agg, ok := refAggFuncs[p.tok.text]; ok {
		save := p.lex
		saveTok := p.tok
		p.advance()
		if p.tok.kind == tokLParen {
			p.advance()
			item.Agg = agg
			if p.tok.kind == tokStar {
				item.Star = true
				p.advance()
			} else {
				col, err := p.parseColRef()
				if err != nil {
					return item, err
				}
				item.Col = col
			}
			if p.tok.kind != tokRParen {
				return item, p.errorf("expected ')', got %q", p.tok.text)
			}
			p.advance()
			return p.parseAlias(item)
		}
		p.lex = save
		p.tok = saveTok
	}
	col, err := p.parseColRef()
	if err != nil {
		return item, err
	}
	item.Col = col
	return p.parseAlias(item)
}

func (p *refParser) parseAlias(item sqlparse.SelectItem) (sqlparse.SelectItem, error) {
	if p.isKeyword("as") {
		p.advance()
		if p.tok.kind != tokIdent {
			return item, p.errorf("expected alias after AS, got %q", p.tok.text)
		}
		item.Alias = p.tok.text
		p.advance()
		return item, p.err
	}
	if p.tok.kind == tokIdent && !refReserved[p.tok.text] {
		item.Alias = p.tok.text
		p.advance()
	}
	return item, p.err
}

func (p *refParser) parseColRef() (sqlparse.ColRef, error) {
	var c sqlparse.ColRef
	if p.tok.kind != tokIdent || refReserved[p.tok.text] {
		return c, p.errorf("expected column reference, got %q", p.tok.text)
	}
	first := p.tok.text
	p.advance()
	if p.tok.kind == tokDot {
		p.advance()
		if p.tok.kind != tokIdent {
			return c, p.errorf("expected column after '.', got %q", p.tok.text)
		}
		c.Table = first
		c.Column = p.tok.text
		p.advance()
		return c, p.err
	}
	c.Column = first
	return c, p.err
}

func (p *refParser) parseTableRef() (sqlparse.TableRef, error) {
	var tr sqlparse.TableRef
	if p.tok.kind != tokIdent || refReserved[p.tok.text] {
		return tr, p.errorf("expected table name, got %q", p.tok.text)
	}
	tr.Name = p.tok.text
	p.advance()
	if p.isKeyword("as") {
		p.advance()
		if p.tok.kind != tokIdent {
			return tr, p.errorf("expected alias after AS, got %q", p.tok.text)
		}
		tr.Alias = p.tok.text
		p.advance()
		return tr, p.err
	}
	if p.tok.kind == tokIdent && !refReserved[p.tok.text] {
		tr.Alias = p.tok.text
		p.advance()
	}
	return tr, p.err
}

func (p *refParser) parseCondition() (sqlparse.Condition, error) {
	var c sqlparse.Condition
	left, err := p.parseColRef()
	if err != nil {
		return c, err
	}
	c.Left = left
	if p.isKeyword("between") {
		p.advance()
		c.Between = true
		lo, err := p.parseNumber()
		if err != nil {
			return c, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return c, err
		}
		hi, err := p.parseNumber()
		if err != nil {
			return c, err
		}
		c.Lo, c.Hi = lo, hi
		return c, p.err
	}
	if p.tok.kind != tokOp {
		return c, p.errorf("expected comparison operator, got %q", p.tok.text)
	}
	c.Op = sqlparse.CompareOp(p.tok.text)
	p.advance()
	switch p.tok.kind {
	case tokNumber:
		v, err := p.parseNumber()
		if err != nil {
			return c, err
		}
		c.Value = v
	case tokIdent:
		right, err := p.parseColRef()
		if err != nil {
			return c, err
		}
		p.right = append(p.right, right)
		c.RightCol = &p.right[len(p.right)-1]
	default:
		return c, p.errorf("expected value or column, got %q", p.tok.text)
	}
	return c, p.err
}

func (p *refParser) parseNumber() (float64, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected number, got %q", p.tok.text)
	}
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return 0, p.errorf("invalid number %q", p.tok.text)
	}
	p.advance()
	return v, p.err
}
