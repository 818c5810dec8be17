package sqlparse

import (
	"fmt"
	"strings"
	"unicode"
)

// tokenKind classifies lexer tokens.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokComma
	tokDot
	tokLParen
	tokRParen
	tokStar
	tokOp // = < > <= >= <> !=
)

// token is one lexeme with its source position (byte offset).
type token struct {
	kind tokenKind
	text string
	pos  int
}

// lexer tokenizes a SQL string.
type lexer struct {
	src string
	pos int
}

// SyntaxError reports a lexing or parsing failure with its byte
// offset into the statement.
type SyntaxError struct {
	Pos int
	Msg string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sqlparse: %s at offset %d", e.Msg, e.Pos)
}

func (l *lexer) errorf(pos int, format string, args ...any) error {
	return &SyntaxError{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Byte classes. An identifier starts with a letter or '_' and goes on
// with those and digits; one that holds an upper-case letter is
// lower-cased, any other is cut from the text as it is.
const (
	classSpace uint8 = 1 << iota
	classDigit
	classLower  // a–z and '_'
	classUpper  // A–Z
	classLetter = classLower | classUpper
	classIdent  = classLetter | classDigit
)

// byteClass classifies every byte. Its space set is exactly
// unicode.IsSpace of the byte read as a rune: tab, LF, VT, FF, CR,
// space, and also 0x85 and 0xA0 (NEL and NBSP in Latin-1), which a
// statement may hold outside UTF-8.
var byteClass = func() (t [256]uint8) {
	for b := range t {
		switch {
		case unicode.IsSpace(rune(b)):
			t[b] = classSpace
		case '0' <= b && b <= '9':
			t[b] = classDigit
		case 'a' <= b && b <= 'z' || b == '_':
			t[b] = classLower
		case 'A' <= b && b <= 'Z':
			t[b] = classUpper
		}
	}
	return t
}()

// next returns the next token.
func (l *lexer) next() (token, error) {
	src, pos := l.src, l.pos
	for pos < len(src) && byteClass[src[pos]] == classSpace {
		pos++
	}
	if pos >= len(src) {
		l.pos = pos
		return token{kind: tokEOF, pos: pos}, nil
	}
	start := pos
	ch := src[pos]
	if seen := byteClass[ch]; seen&classLetter != 0 {
		for pos++; pos < len(src); pos++ {
			c := byteClass[src[pos]]
			if c&classIdent == 0 {
				break
			}
			seen |= c
		}
		l.pos = pos
		text := src[start:pos]
		if seen&classUpper != 0 {
			text = strings.ToLower(text)
		}
		return token{tokIdent, text, start}, nil
	}
	l.pos = pos + 1
	switch ch {
	case ',':
		return token{tokComma, ",", start}, nil
	case '.':
		return token{tokDot, ".", start}, nil
	case '(':
		return token{tokLParen, "(", start}, nil
	case ')':
		return token{tokRParen, ")", start}, nil
	case '*':
		return token{tokStar, "*", start}, nil
	case '=':
		return token{tokOp, "=", start}, nil
	case '<':
		if l.pos < len(src) && (src[l.pos] == '=' || src[l.pos] == '>') {
			l.pos++
			return token{tokOp, src[start:l.pos], start}, nil
		}
		return token{tokOp, "<", start}, nil
	case '>':
		if l.pos < len(src) && src[l.pos] == '=' {
			l.pos++
			return token{tokOp, ">=", start}, nil
		}
		return token{tokOp, ">", start}, nil
	case '!':
		if l.pos < len(src) && src[l.pos] == '=' {
			l.pos++
			return token{tokOp, "<>", start}, nil // normalize != to <>
		}
		return token{}, l.errorf(start, "unexpected character %q", ch)
	case '-', '+', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		l.pos = start
		return l.lexNumber()
	}
	return token{}, l.errorf(start, "unexpected character %q", ch)
}

// lexNumber scans an optionally signed decimal with optional fraction
// and exponent.
func (l *lexer) lexNumber() (token, error) {
	src, start := l.src, l.pos
	pos := start
	if src[pos] == '-' || src[pos] == '+' {
		pos++
	}
	mark := pos
	pos = skipDigits(src, pos)
	digits := pos - mark
	if pos < len(src) && src[pos] == '.' {
		mark = pos + 1
		pos = skipDigits(src, mark)
		digits += pos - mark
	}
	if digits == 0 {
		return token{}, l.errorf(start, "malformed number")
	}
	if pos < len(src) && (src[pos] == 'e' || src[pos] == 'E') {
		exp := pos + 1
		if exp < len(src) && (src[exp] == '-' || src[exp] == '+') {
			exp++
		}
		if end := skipDigits(src, exp); end > exp {
			pos = end
		} // else the "e" belongs to something else; unlikely in this grammar
	}
	l.pos = pos
	return token{tokNumber, src[start:pos], start}, nil
}

// skipDigits returns the offset of the first byte at or after pos that
// is not a decimal digit.
func skipDigits(src string, pos int) int {
	for pos < len(src) && byteClass[src[pos]] == classDigit {
		pos++
	}
	return pos
}
