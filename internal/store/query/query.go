// Package query is the findings query language: a lexer, recursive-descent
// parser, and canonical printer for expressions like
//
//	cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20
//
// Grammar (EBNF; keywords and field names are case-insensitive):
//
//	query   = [ expr ] [ "ORDER" "BY" field [ "ASC" | "DESC" ] ] [ "LIMIT" int ] ;
//	expr    = andExpr { "OR" andExpr } ;
//	andExpr = unary { "AND" unary } ;
//	unary   = "NOT" unary | "(" expr ")" | cmp ;
//	cmp     = field op value ;
//	op      = "=" | "!=" | ">" | ">=" | "<" | "<=" ;
//	field   = "score" | "time" | "repo" | "seq" | "total" | "severity"
//	        | "file" | "cwe" digits ;
//	value   = number | string | ident ;
//
// Strings are double-quoted with Go escape syntax; bare identifiers are
// accepted where a string is expected (severity names, repo ids without
// special characters). Dates for the time field must be quoted (RFC 3339
// or "2006-01-02"); bare numbers there are Unix seconds.
//
// The printer emits a canonical, fully parenthesized form whose reparse
// yields an identical tree — the parse→print→reparse fixpoint the fuzz
// test holds the package to.
package query

import (
	"fmt"
	"strconv"
	"strings"
)

// Op is a comparison operator.
type Op string

// The six comparison operators.
const (
	OpEq Op = "="
	OpNe Op = "!="
	OpGt Op = ">"
	OpGe Op = ">="
	OpLt Op = "<"
	OpLe Op = "<="
)

// Fields. FieldCWE covers the whole cweNNN family; Cmp.CWE carries NNN.
const (
	FieldScore    = "score"
	FieldTime     = "time"
	FieldRepo     = "repo"
	FieldSeq      = "seq"
	FieldTotal    = "total"
	FieldSeverity = "severity"
	FieldFile     = "file"
	FieldCWE      = "cwe"
)

// severityNames mirrors findings.ParseSeverity's accepted level names.
var severityNames = map[string]bool{
	"info": true, "low": true, "medium": true, "high": true, "critical": true,
}

// Value is a comparison operand: a number or a string.
type Value struct {
	IsNum bool
	Num   float64
	Str   string
}

func (v Value) String() string {
	if v.IsNum {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return strconv.Quote(v.Str)
}

// Expr is a boolean expression tree node.
type Expr interface {
	String() string
	isExpr()
}

// Cmp is a field/operator/value comparison leaf.
type Cmp struct {
	Field string
	CWE   uint32 // the NNN of cweNNN when Field == FieldCWE
	Op    Op
	Val   Value
}

// And, Or, and Not combine expressions.
type (
	And struct{ L, R Expr }
	Or  struct{ L, R Expr }
	Not struct{ E Expr }
)

func (*Cmp) isExpr() {}
func (*And) isExpr() {}
func (*Or) isExpr()  {}
func (*Not) isExpr() {}

func (c *Cmp) String() string {
	f := c.Field
	if c.Field == FieldCWE {
		f = fmt.Sprintf("cwe%d", c.CWE)
	}
	return fmt.Sprintf("%s %s %s", f, c.Op, c.Val)
}
func (a *And) String() string { return fmt.Sprintf("(%s AND %s)", a.L, a.R) }
func (o *Or) String() string  { return fmt.Sprintf("(%s OR %s)", o.L, o.R) }
func (n *Not) String() string { return fmt.Sprintf("NOT %s", n.E) }

// PinnedRepo returns the repository a filter pins: the first repo = "..."
// string equality on its top-level AND spine, read left to right. Every
// row the filter matches belongs to that repository. An equality under OR
// or NOT pins nothing. The shard router places a query by this repository
// and the findex planner narrows its index scan to it, so both read the
// pin from here.
func PinnedRepo(e Expr) (string, bool) {
	switch n := e.(type) {
	case *And:
		if repo, ok := PinnedRepo(n.L); ok {
			return repo, true
		}
		return PinnedRepo(n.R)
	case *Cmp:
		if n.Field == FieldRepo && n.Op == OpEq && !n.Val.IsNum {
			return n.Val.Str, true
		}
	}
	return "", false
}

// Query is a parsed query: an optional filter, ordering, and limit.
type Query struct {
	// Where is nil for a match-everything query.
	Where Expr
	// OrderBy is the sort field ("" = the executor's default order);
	// Desc selects descending. OrderCWE carries NNN for cweNNN ordering.
	OrderBy  string
	OrderCWE uint32
	Desc     bool
	// Limit caps results; -1 means unlimited.
	Limit int
}

// String renders the canonical form: parsing it back yields an identical
// Query, and printing that yields the same string (the fixpoint).
func (q *Query) String() string {
	var parts []string
	if q.Where != nil {
		parts = append(parts, q.Where.String())
	}
	if q.OrderBy != "" {
		f := q.OrderBy
		if f == FieldCWE {
			f = fmt.Sprintf("cwe%d", q.OrderCWE)
		}
		dir := "ASC"
		if q.Desc {
			dir = "DESC"
		}
		parts = append(parts, fmt.Sprintf("ORDER BY %s %s", f, dir))
	}
	if q.Limit >= 0 {
		parts = append(parts, fmt.Sprintf("LIMIT %d", q.Limit))
	}
	return strings.Join(parts, " ")
}

// --- lexer ---

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokOp // = != > >= < <=
	tokLParen
	tokRParen
)

type token struct {
	kind tokenKind
	text string // canonical text; idents lowercased, strings unquoted
	pos  int
}

type lexer struct {
	src string
	pos int
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentRest(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_'
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && (l.src[l.pos] == ' ' || l.src[l.pos] == '\t' || l.src[l.pos] == '\n' || l.src[l.pos] == '\r') {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '(':
		l.pos++
		return token{tokLParen, "(", start}, nil
	case c == ')':
		l.pos++
		return token{tokRParen, ")", start}, nil
	case c == '=':
		l.pos++
		return token{tokOp, "=", start}, nil
	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return token{tokOp, "!=", start}, nil
		}
		return token{}, fmt.Errorf("query: stray '!' at offset %d (did you mean \"!=\"?)", start)
	case c == '>' || c == '<':
		op := string(c)
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return token{tokOp, op, start}, nil
	case c == '"':
		// Scan to the closing quote, honoring backslash escapes, then let
		// strconv.Unquote apply Go escape semantics.
		i := l.pos + 1
		for i < len(l.src) {
			if l.src[i] == '\\' {
				i += 2
				continue
			}
			if l.src[i] == '"' {
				break
			}
			i++
		}
		if i >= len(l.src) {
			return token{}, fmt.Errorf("query: unterminated string at offset %d", start)
		}
		raw := l.src[l.pos : i+1]
		l.pos = i + 1
		s, err := strconv.Unquote(raw)
		if err != nil {
			return token{}, fmt.Errorf("query: bad string literal at offset %d: %v", start, err)
		}
		return token{tokString, s, start}, nil
	case c >= '0' && c <= '9':
		i := l.pos
		digits := func() {
			for i < len(l.src) && l.src[i] >= '0' && l.src[i] <= '9' {
				i++
			}
		}
		digits()
		if i < len(l.src) && l.src[i] == '.' {
			i++
			if i >= len(l.src) || l.src[i] < '0' || l.src[i] > '9' {
				return token{}, fmt.Errorf("query: malformed number at offset %d", start)
			}
			digits()
		}
		// Exponent form, as the canonical printer emits (e.g. 1e+06).
		if i < len(l.src) && (l.src[i] == 'e' || l.src[i] == 'E') {
			j := i + 1
			if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
				j++
			}
			if j < len(l.src) && l.src[j] >= '0' && l.src[j] <= '9' {
				i = j
				digits()
			}
		}
		text := l.src[l.pos:i]
		l.pos = i
		return token{tokNumber, text, start}, nil
	case isIdentStart(c):
		i := l.pos
		for i < len(l.src) && isIdentRest(l.src[i]) {
			i++
		}
		text := strings.ToLower(l.src[l.pos:i])
		l.pos = i
		return token{tokIdent, text, start}, nil
	default:
		return token{}, fmt.Errorf("query: unexpected character %q at offset %d", c, start)
	}
}

// --- parser ---

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// Parse parses a query string. The empty string is the match-all query.
func Parse(src string) (*Query, error) {
	p := &parser{lex: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	q := &Query{Limit: -1}
	if p.tok.kind != tokEOF && !p.atKeyword("order") && !p.atKeyword("limit") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	if p.atKeyword("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !p.atKeyword("by") {
			return nil, fmt.Errorf("query: expected BY after ORDER at offset %d", p.tok.pos)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokIdent {
			return nil, fmt.Errorf("query: expected a field after ORDER BY at offset %d", p.tok.pos)
		}
		field, cweNum, err := parseField(p.tok.text, p.tok.pos)
		if err != nil {
			return nil, err
		}
		q.OrderBy, q.OrderCWE = field, cweNum
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atKeyword("asc") || p.atKeyword("desc") {
			q.Desc = p.tok.text == "desc"
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if p.atKeyword("limit") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != tokNumber || strings.Contains(p.tok.text, ".") {
			return nil, fmt.Errorf("query: LIMIT needs an integer at offset %d", p.tok.pos)
		}
		n, err := strconv.Atoi(p.tok.text)
		if err != nil {
			return nil, fmt.Errorf("query: bad LIMIT at offset %d: %v", p.tok.pos, err)
		}
		q.Limit = n
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != tokEOF {
		return nil, fmt.Errorf("query: unexpected %q at offset %d", p.tok.text, p.tok.pos)
	}
	return q, nil
}

func (p *parser) atKeyword(kw string) bool {
	return p.tok.kind == tokIdent && p.tok.text == kw
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Or{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &And{L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.atKeyword("not"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Not{E: e}, nil
	case p.tok.kind == tokLParen:
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if p.tok.kind != tokRParen {
			return nil, fmt.Errorf("query: expected ')' at offset %d", p.tok.pos)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return p.parseCmp()
	}
}

// parseField resolves an identifier to a field name (and CWE number for
// the cweNNN family).
func parseField(text string, pos int) (string, uint32, error) {
	switch text {
	case FieldScore, FieldTime, FieldRepo, FieldSeq, FieldTotal, FieldSeverity, FieldFile:
		return text, 0, nil
	}
	if rest, ok := strings.CutPrefix(text, "cwe"); ok && rest != "" {
		n, err := strconv.ParseUint(rest, 10, 32)
		if err != nil {
			return "", 0, fmt.Errorf("query: malformed CWE field %q at offset %d", text, pos)
		}
		return FieldCWE, uint32(n), nil
	}
	return "", 0, fmt.Errorf("query: unknown field %q at offset %d", text, pos)
}

func (p *parser) parseCmp() (Expr, error) {
	if p.tok.kind != tokIdent {
		return nil, fmt.Errorf("query: expected a field name at offset %d", p.tok.pos)
	}
	field, cweNum, err := parseField(p.tok.text, p.tok.pos)
	if err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.kind != tokOp {
		return nil, fmt.Errorf("query: expected a comparison operator at offset %d", p.tok.pos)
	}
	op := Op(p.tok.text)
	opPos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	var val Value
	switch p.tok.kind {
	case tokNumber:
		f, err := strconv.ParseFloat(p.tok.text, 64)
		if err != nil {
			return nil, fmt.Errorf("query: bad number at offset %d: %v", p.tok.pos, err)
		}
		val = Value{IsNum: true, Num: f}
	case tokString, tokIdent:
		val = Value{Str: p.tok.text}
	default:
		return nil, fmt.Errorf("query: expected a value at offset %d", p.tok.pos)
	}
	valPos := p.tok.pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	c := &Cmp{Field: field, CWE: cweNum, Op: op, Val: val}
	if err := typeCheck(c, opPos, valPos); err != nil {
		return nil, err
	}
	return c, nil
}

// typeCheck enforces per-field operand and operator rules at parse time so
// the planner and executor never meet an ill-typed comparison.
func typeCheck(c *Cmp, opPos, valPos int) error {
	switch c.Field {
	case FieldScore, FieldSeq, FieldTotal, FieldCWE:
		if !c.Val.IsNum {
			return fmt.Errorf("query: field %s needs a numeric value at offset %d", c.Field, valPos)
		}
	case FieldTime:
		// Numbers are Unix seconds; strings must be a parseable date —
		// validated here so errors surface at parse, not execution.
		if !c.Val.IsNum {
			if _, err := ParseTime(c.Val.Str); err != nil {
				return fmt.Errorf("query: time needs Unix seconds or a quoted RFC 3339 / \"2006-01-02\" date at offset %d", valPos)
			}
		}
	case FieldSeverity:
		if !c.Val.IsNum && !severityNames[c.Val.Str] {
			return fmt.Errorf("query: unknown severity %q at offset %d", c.Val.Str, valPos)
		}
	case FieldRepo, FieldFile:
		if c.Val.IsNum {
			return fmt.Errorf("query: field %s needs a string value at offset %d", c.Field, valPos)
		}
		if c.Op != OpEq && c.Op != OpNe {
			return fmt.Errorf("query: field %s supports only = and != at offset %d", c.Field, opPos)
		}
	}
	return nil
}
