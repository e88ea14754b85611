// Package lexer is a language-parameterized tokenizer for C-like, Java-like,
// and Python-like source text. It is the shared front end for the metric
// extractors (cyclomatic complexity, Halstead measures, code smells, lint)
// and is resilient to malformed input: it never fails, it only degrades.
//
// Tokens are index pairs into the shared source buffer rather than owned
// substrings: a Token is 32 bytes, carries no per-token allocation, and
// materializes its text lazily through Text(). The steady-state tokenize
// path (TokenizeInto over a reused buffer) performs zero allocations.
package lexer

import (
	"strings"
	"unicode"

	"repro/internal/lang"
)

// Kind classifies a token.
type Kind int32

// Token kinds.
const (
	EOF Kind = iota
	Ident
	Keyword
	Number
	String
	Comment
	Operator
	Punct // brackets, braces, separators
	Preproc
	Newline

	numKinds
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "Ident"
	case Keyword:
		return "Keyword"
	case Number:
		return "Number"
	case String:
		return "String"
	case Comment:
		return "Comment"
	case Operator:
		return "Operator"
	case Punct:
		return "Punct"
	case Preproc:
		return "Preproc"
	case Newline:
		return "Newline"
	}
	return "Unknown"
}

// Token is one lexical unit: a [Start, End) byte range into the source
// buffer it was scanned from. Text is materialized on demand; tokens built
// without a source buffer (synthetic EOF markers) yield "".
type Token struct {
	src   string
	Start int32
	End   int32
	Line  int32 // 1-based line of the token's first character
	Kind  Kind
}

// Text returns the token's source text as a zero-copy slice of the buffer
// it was scanned from.
func (t Token) Text() string {
	if t.src == "" {
		return ""
	}
	return t.src[t.Start:t.End]
}

// Len returns the token's length in bytes without materializing the text.
func (t Token) Len() int { return int(t.End - t.Start) }

// multi-character operators, longest first within each leading byte.
var multiOps = []string{
	"<<=", ">>=", "...", "->*", "===", "!==",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=",
	"%=", "&=", "|=", "^=", "<<", ">>", "->", "::", "**", "//",
}

// Lexer tokenizes one source buffer.
type Lexer struct {
	src    string
	syntax lang.Syntax
	pos    int
	line   int32
}

// New returns a lexer for src using the lexical rules of language l.
func New(src string, l lang.Language) *Lexer {
	return &Lexer{src: src, syntax: lang.SyntaxOf(l), line: 1}
}

// tokensPerByte is the preallocation density estimate: one token per three
// source bytes comfortably covers dense C-family punctuation.
const tokensPerByte = 3

// Tokenize scans src to completion and returns all tokens (excluding EOF).
// Comments and newlines are included so callers can reconstruct line
// structure; filter with Filter if only code tokens are wanted.
func Tokenize(src string, l lang.Language) []Token {
	return TokenizeInto(make([]Token, 0, len(src)/tokensPerByte+8), src, l)
}

// TokenizeInto appends all of src's tokens (excluding EOF) to dst and
// returns the extended slice. Callers that reuse dst across files — resetting
// with dst[:0] — tokenize with zero steady-state allocations.
func TokenizeInto(dst []Token, src string, l lang.Language) []Token {
	lx := New(src, l)
	for {
		t := lx.Next()
		if t.Kind == EOF {
			return dst
		}
		dst = append(dst, t)
	}
}

// kindMask packs token kinds into a bitmask (all kinds fit in a uint32).
func kindMask(kinds ...Kind) uint32 {
	var mask uint32
	for _, k := range kinds {
		mask |= 1 << uint32(k)
	}
	return mask
}

// Filter returns only the tokens of the given kinds.
func Filter(toks []Token, kinds ...Kind) []Token {
	mask := kindMask(kinds...)
	var out []Token
	for _, t := range toks {
		if mask&(1<<uint32(t.Kind)) != 0 {
			if out == nil {
				out = make([]Token, 0, len(toks))
			}
			out = append(out, t)
		}
	}
	return out
}

// codeMask drops comments and newlines.
const codeMask = ^uint32(1<<uint32(Comment) | 1<<uint32(Newline))

// Code returns the tokens that participate in program semantics (everything
// except comments and newlines).
func Code(toks []Token) []Token {
	var out []Token
	for _, t := range toks {
		if codeMask&(1<<uint32(t.Kind)) != 0 {
			if out == nil {
				out = make([]Token, 0, len(toks))
			}
			out = append(out, t)
		}
	}
	return out
}

// CodeInto appends the semantic tokens of toks to dst and returns the
// extended slice; reuse dst[:0] across files for zero-alloc filtering.
func CodeInto(dst, toks []Token) []Token {
	for _, t := range toks {
		if codeMask&(1<<uint32(t.Kind)) != 0 {
			dst = append(dst, t)
		}
	}
	return dst
}

// tok builds a token spanning [start, lx.pos) on startLine.
func (lx *Lexer) tok(k Kind, start int, startLine int32) Token {
	return Token{src: lx.src, Kind: k, Start: int32(start), End: int32(lx.pos), Line: startLine}
}

// Next returns the next token, or an EOF token at the end of input.
//
// Next dispatches on the token's first byte. Identifiers, the commonest
// token, are scanned before any marker test; a comment, block-comment or
// triple-quote marker is compared only when the byte equals the marker's
// first byte; and multi-character operators come from opsByLead, which keeps
// multiOps' order within each leading byte. The rules and their precedence
// are otherwise those of the sequential reference scanner kept in
// reference_test.go, so every token's Kind, Start, End and Line match it on
// any input: no lang.Syntax marker, quote or preprocessor byte starts an
// identifier or a number, and lang's tests pin that.
func (lx *Lexer) Next() Token {
	src, pos := lx.src, lx.pos
	// Skip horizontal whitespace (newlines are tokens).
	for pos < len(src) && (src[pos] == ' ' || src[pos] == '\t' || src[pos] == '\r') {
		pos++
	}
	lx.pos = pos
	if pos >= len(src) {
		return Token{src: src, Start: int32(pos), End: int32(pos), Kind: EOF, Line: lx.line}
	}
	start, startLine := pos, lx.line
	c := src[pos]
	syn := &lx.syntax

	// Identifiers and keywords.
	if byteClass[c]&identStart != 0 {
		pos++
		for pos < len(src) && byteClass[src[pos]]&identPart != 0 {
			pos++
		}
		lx.pos = pos
		kind := Ident
		if syn.Keywords[src[start:pos]] {
			kind = Keyword
		}
		return lx.tok(kind, start, startLine)
	}

	// Numbers: ints, floats, hex, exponents, suffixes.
	if byteClass[c]&digit != 0 || (c == '.' && pos+1 < len(src) && byteClass[src[pos+1]]&digit != 0) {
		pos++
		for pos < len(src) {
			ch := src[pos]
			if byteClass[ch]&identPart != 0 || ch == '.' {
				pos++
				continue
			}
			// Exponent sign: 1e-5
			if (ch == '+' || ch == '-') && (src[pos-1] == 'e' || src[pos-1] == 'E') {
				pos++
				continue
			}
			break
		}
		lx.pos = pos
		return lx.tok(Number, start, startLine)
	}

	if c == '\n' {
		lx.pos++
		lx.line++
		return lx.tok(Newline, start, startLine)
	}

	// Preprocessor lines (C/C++): '#' at the start of a (logical) line.
	if syn.Preprocessor != 0 && c == syn.Preprocessor && lx.atLineStart(start) {
		for pos < len(src) && src[pos] != '\n' {
			// Handle line continuation.
			if src[pos] == '\\' && pos+1 < len(src) && src[pos+1] == '\n' {
				pos += 2
				lx.line++
				continue
			}
			pos++
		}
		lx.pos = pos
		return lx.tok(Preproc, start, startLine)
	}

	// Line comments.
	for _, lc := range syn.LineComment {
		if c == lc[0] && strings.HasPrefix(src[pos:], lc) {
			lx.pos = len(src)
			if i := strings.IndexByte(src[pos:], '\n'); i >= 0 {
				lx.pos = pos + i
			}
			return lx.tok(Comment, start, startLine)
		}
	}

	// Block comments.
	if bs := syn.BlockStart; bs != "" && c == bs[0] && strings.HasPrefix(src[pos:], bs) {
		lx.skipPast(pos+len(bs), syn.BlockEnd)
		return lx.tok(Comment, start, startLine)
	}

	// Triple-quoted strings (Python).
	if syn.RawTripleQuote && (c == '"' || c == '\'') && pos+2 < len(src) && src[pos+1] == c && src[pos+2] == c {
		lx.skipPast(pos+3, src[pos:pos+3])
		return lx.tok(String, start, startLine)
	}

	// Quoted strings/chars.
	for _, q := range syn.StringQuotes {
		if c == q {
			pos++
			for pos < len(src) {
				ch := src[pos]
				if ch == '\\' && pos+1 < len(src) {
					pos += 2
					continue
				}
				if ch == '\n' { // unterminated: stop at line end
					break
				}
				pos++
				if ch == q {
					break
				}
			}
			lx.pos = pos
			return lx.tok(String, start, startLine)
		}
	}

	// Multi-character operators. "//" is only reached where it is not a
	// comment (Python's floor division).
	for _, op := range opsByLead[c] {
		if strings.HasPrefix(src[pos:], op) {
			lx.pos = pos + len(op)
			return lx.tok(Operator, start, startLine)
		}
	}

	// Single-character punctuation vs. operator.
	lx.pos++
	switch c {
	case '(', ')', '[', ']', '{', '}', ',', ';', ':':
		return lx.tok(Punct, start, startLine)
	default:
		return lx.tok(Operator, start, startLine)
	}
}

// skipPast moves the lexer from p to just past the first closer at or after
// p, counting the newlines it crosses; an unclosed construct runs to the end
// of input.
func (lx *Lexer) skipPast(p int, closer string) {
	end := len(lx.src)
	if i := strings.Index(lx.src[p:], closer); i >= 0 {
		end = p + i
	}
	lx.line += int32(strings.Count(lx.src[p:end], "\n"))
	lx.pos = end
	if end < len(lx.src) {
		lx.pos += len(closer)
	}
}

// atLineStart reports whether only whitespace precedes position p on its line.
func (lx *Lexer) atLineStart(p int) bool {
	for i := p - 1; i >= 0; i-- {
		switch lx.src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
			continue
		default:
			return false
		}
	}
	return true
}

// Byte classes for first-byte dispatch.
const (
	identStart uint8 = 1 << iota // letters (Latin-1 letters above 0x7f) and '_'
	identPart                    // identStart or digit
	digit                        // '0'..'9'
)

var byteClass = func() (t [256]uint8) {
	for i := range t {
		c := byte(i)
		isDigit := c >= '0' && c <= '9'
		isAlpha := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80 && unicode.IsLetter(rune(c))
		if isAlpha || c == '_' {
			t[i] |= identStart | identPart
		}
		if isDigit {
			t[i] |= identPart | digit
		}
	}
	return t
}()

// opsByLead holds multiOps grouped by leading byte, each group in multiOps'
// order, so the first prefix match is the one a scan of multiOps would find.
var opsByLead = func() (t [256][]string) {
	for _, op := range multiOps {
		t[op[0]] = append(t[op[0]], op)
	}
	return t
}()
