package sqlparse

import (
	"math"
	"slices"
	"strconv"
	"sync"
)

// Parser is a recursive-descent parser over the lexer's token stream
// with one token of lookahead, which parses every statement into the
// same memory. The zero value is ready.
//
// The statement Parse returns is the Parser's: its lists and the
// columns its GroupBy, OrderBy and RightCol fields point to are
// overwritten by the next Parse, so a caller that parses again has
// finished with the last statement. Its strings are not the Parser's —
// each is cut from the text that was parsed, or is a lower-cased copy of
// its own — and stay good. Once its lists have grown to a statement's
// size, a Parser reads lower-case text of that size without allocating.
type Parser struct {
	lex lexer
	tok token
	err error

	stmt    SelectStmt
	items   []SelectItem
	from    []TableRef
	where   []Condition
	right   []ColRef // what the conditions' RightCol point to
	groupBy ColRef
	orderBy OrderSpec
}

// parsers are the Parsers Parse reads in; each has only ever read
// statements of at most maxKeptStatement bytes.
var parsers = sync.Pool{New: func() any { return new(Parser) }}

// maxKeptStatement bounds the statements a pooled Parser has read, as
// the same bound in package wire bounds what a serving connection keeps:
// a Parser's lists grow with the text, so one that has read a longer
// statement is left to the collector rather than pooled.
const maxKeptStatement = 4 << 10

// Parse parses one SELECT statement into memory of its own: the
// statement is the caller's to keep. It is read by a pooled Parser and
// copied out at its exact size, so that a caller holding statements by
// the thousand (a trace, the benchmark's population) holds for each a
// SelectStmt and its lists, not a Parser nor lists grown by doubling:
// the statement with the GROUP BY and ORDER BY clauses it has, the
// projections, the tables, and the conditions with the columns their
// right-hand sides point to. That is four allocations at most; the
// strings cost none unless an identifier had to be lower-cased, for each
// is cut from sql.
func Parse(sql string) (*SelectStmt, error) {
	p := parsers.Get().(*Parser)
	var stmt *SelectStmt
	parsed, err := p.Parse(sql)
	if err == nil {
		stmt = parsed.clone()
	}
	if len(sql) <= maxKeptStatement {
		parsers.Put(p)
	}
	return stmt, err
}

// clone copies a statement the Parser returned into exact-size memory.
func (s *SelectStmt) clone() *SelectStmt {
	// The statement and the clauses it points to are one block, sized
	// for the clauses it has.
	var out *SelectStmt
	switch {
	case s.GroupBy != nil && s.OrderBy != nil:
		b := &struct {
			stmt    SelectStmt
			groupBy ColRef
			orderBy OrderSpec
		}{*s, *s.GroupBy, *s.OrderBy}
		out, b.stmt.GroupBy, b.stmt.OrderBy = &b.stmt, &b.groupBy, &b.orderBy
	case s.GroupBy != nil:
		b := &struct {
			stmt    SelectStmt
			groupBy ColRef
		}{*s, *s.GroupBy}
		out, b.stmt.GroupBy = &b.stmt, &b.groupBy
	case s.OrderBy != nil:
		b := &struct {
			stmt    SelectStmt
			orderBy OrderSpec
		}{*s, *s.OrderBy}
		out, b.stmt.OrderBy = &b.stmt, &b.orderBy
	default:
		stmt := *s
		out = &stmt
	}
	out.Items = slices.Clone(s.Items)
	out.From = slices.Clone(s.From)
	if n := len(s.Where); n > 0 {
		// The right-hand columns go in the Left of conditions past the
		// list's end: one allocation for the clause.
		rightCols := 0
		for i := range s.Where {
			if s.Where[i].RightCol != nil {
				rightCols++
			}
		}
		conds := make([]Condition, n+rightCols)
		copy(conds, s.Where)
		right := conds[n:]
		for i := range conds[:n] {
			if c := conds[i].RightCol; c != nil {
				right[0].Left = *c
				conds[i].RightCol = &right[0].Left
				right = right[1:]
			}
		}
		out.Where = conds[:n:n]
	}
	return out
}

// Parse parses one SELECT statement into the Parser's memory, over the
// statement it returned last. A statement that does not parse leaves the
// Parser as ready as one that does.
func (p *Parser) Parse(sql string) (*SelectStmt, error) {
	p.lex, p.tok, p.err = lexer{src: sql}, token{}, nil
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

func (p *Parser) advance() {
	if p.err != nil {
		return
	}
	p.tok, p.err = p.lex.next()
}

func (p *Parser) errorf(format string, args ...any) error {
	if p.err != nil {
		return p.err
	}
	return p.lex.errorf(p.tok.pos, format, args...)
}

// expectKeyword consumes the given keyword identifier.
func (p *Parser) expectKeyword(kw string) error {
	if p.tok.kind != tokIdent || p.tok.text != kw {
		return p.errorf("expected %q, got %q", kw, p.tok.text)
	}
	p.advance()
	return p.err
}

// isKeyword reports whether the current token is the given keyword.
func (p *Parser) isKeyword(kw string) bool {
	return p.tok.kind == tokIdent && p.tok.text == kw
}

// reserved reports whether an identifier is a word that terminates
// identifier positions.
func reserved(ident string) bool {
	switch ident {
	case "select", "from", "where", "and", "between", "as", "top",
		"group", "order", "by", "asc", "desc":
		return true
	}
	return false
}

func (p *Parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &p.stmt
	*stmt = SelectStmt{}
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
		*spec = OrderSpec{Col: col}
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

// aggFunc returns the aggregate function an identifier names, or
// AggNone.
func aggFunc(ident string) AggFunc {
	switch ident {
	case "count":
		return AggCount
	case "sum":
		return AggSum
	case "avg":
		return AggAvg
	case "min":
		return AggMin
	case "max":
		return AggMax
	}
	return AggNone
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	var item SelectItem
	if p.tok.kind == tokStar {
		p.advance()
		item.Star = true
		return item, p.err
	}
	if p.tok.kind != tokIdent {
		return item, p.errorf("expected projection, got %q", p.tok.text)
	}
	if agg := aggFunc(p.tok.text); agg != AggNone {
		// Lookahead: aggregate call only if followed by '('.
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
		// Not a call: restore and treat as a column name.
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

// parseAlias consumes an optional [AS] alias after a projection.
func (p *Parser) parseAlias(item SelectItem) (SelectItem, error) {
	if p.isKeyword("as") {
		p.advance()
		if p.tok.kind != tokIdent {
			return item, p.errorf("expected alias after AS, got %q", p.tok.text)
		}
		item.Alias = p.tok.text
		p.advance()
		return item, p.err
	}
	if p.tok.kind == tokIdent && !reserved(p.tok.text) {
		item.Alias = p.tok.text
		p.advance()
	}
	return item, p.err
}

func (p *Parser) parseColRef() (ColRef, error) {
	var c ColRef
	if p.tok.kind != tokIdent || reserved(p.tok.text) {
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

func (p *Parser) parseTableRef() (TableRef, error) {
	var tr TableRef
	if p.tok.kind != tokIdent || reserved(p.tok.text) {
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
	if p.tok.kind == tokIdent && !reserved(p.tok.text) {
		tr.Alias = p.tok.text
		p.advance()
	}
	return tr, p.err
}

func (p *Parser) parseCondition() (Condition, error) {
	var c Condition
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
	c.Op = CompareOp(p.tok.text)
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
		// A grown list leaves the earlier conditions pointing into the
		// one it outgrew, which nothing writes again before the next Parse.
		p.right = append(p.right, right)
		c.RightCol = &p.right[len(p.right)-1]
	default:
		return c, p.errorf("expected value or column, got %q", p.tok.text)
	}
	return c, p.err
}

func (p *Parser) parseNumber() (float64, error) {
	if p.tok.kind != tokNumber {
		return 0, p.errorf("expected number, got %q", p.tok.text)
	}
	v, ok := exactDecimal(p.tok.text)
	if !ok {
		var err error
		if v, err = strconv.ParseFloat(p.tok.text, 64); err != nil {
			return 0, p.errorf("invalid number %q", p.tok.text)
		}
	}
	p.advance()
	return v, p.err
}

// pow10 are the powers of ten a float64 holds exactly, as far as
// exactDecimal needs them.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// exactDecimal reads a number token without an exponent and with at most
// 15 digits, as the generated statements' are. The digits are an integer
// a float64 holds exactly, and so is the power of ten it is divided by,
// so one division rounds the quotient once, correctly: to the float
// strconv.ParseFloat returns, −0 included. ok is false for any other
// token, which ParseFloat reads.
func exactDecimal(num string) (v float64, ok bool) {
	var mant uint64
	digits, point := 0, -1
	for i := 0; i < len(num); i++ {
		switch c := num[i]; {
		case '0' <= c && c <= '9':
			mant = mant*10 + uint64(c-'0')
			digits++
		case c == '.':
			point = digits
		case c == 'e' || c == 'E':
			return 0, false
		} // else the leading sign
	}
	if digits > len(pow10)-1 {
		return 0, false
	}
	v = float64(mant)
	if num[0] == '-' {
		v = -v
	}
	if point >= 0 {
		v /= pow10[digits-point]
	}
	return v, true
}

// scrambled is a name no catalog has and no lexer produces.
const scrambled = "\x00scrambled"

// Scramble overwrites the statement the Parser returned last — every
// list to its capacity, every column a pointer in it names — with names
// no catalog has and numbers no comparison satisfies: what the next
// Parse would do to it, only unmistakably. It is for the tests of a
// Parser's owners, which call it between statements so that whatever
// still points into the last one reads garbage instead of plausible
// values; the Parser is as ready afterwards as before.
func (p *Parser) Scramble() {
	col := ColRef{Table: scrambled, Column: scrambled}
	nan := math.NaN()
	for i := range p.where {
		if c := p.where[i].RightCol; c != nil {
			*c = col // also where the list has since outgrown what c points into
		}
	}
	fill(p.items, SelectItem{Agg: scrambled, Star: true, Col: col, Alias: scrambled})
	fill(p.from, TableRef{Name: scrambled, Alias: scrambled})
	fill(p.where, Condition{Left: col, Op: scrambled, Value: nan, Lo: nan, Hi: nan})
	fill(p.right, col)
	p.groupBy, p.orderBy = col, OrderSpec{Col: col, Desc: true}
	p.stmt.Top = math.MinInt64
}

// fill overwrites s to its capacity with v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}
