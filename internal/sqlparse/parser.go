package sqlparse

import (
	"math"
	"strconv"
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
// its own — and stay good.
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

// Parse parses one SELECT statement into memory of its own: the
// statement is the caller's to keep. It is a new Parser's, copied out
// with the columns it points to, so that a caller holding statements by
// the thousand (a trace, the benchmark's population) holds a SelectStmt
// and its lists for each and not a Parser.
func Parse(sql string) (*SelectStmt, error) {
	var p Parser
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

// reserved words that terminate identifier positions.
var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "and": true,
	"between": true, "as": true, "top": true,
	"group": true, "order": true, "by": true, "asc": true, "desc": true,
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

var aggFuncs = map[string]AggFunc{
	"count": AggCount, "sum": AggSum, "avg": AggAvg, "min": AggMin, "max": AggMax,
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
	if agg, ok := aggFuncs[p.tok.text]; ok {
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
	if p.tok.kind == tokIdent && !reserved[p.tok.text] {
		item.Alias = p.tok.text
		p.advance()
	}
	return item, p.err
}

func (p *Parser) parseColRef() (ColRef, error) {
	var c ColRef
	if p.tok.kind != tokIdent || reserved[p.tok.text] {
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
	if p.tok.kind != tokIdent || reserved[p.tok.text] {
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
	if p.tok.kind == tokIdent && !reserved[p.tok.text] {
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
	v, err := strconv.ParseFloat(p.tok.text, 64)
	if err != nil {
		return 0, p.errorf("invalid number %q", p.tok.text)
	}
	p.advance()
	return v, p.err
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
