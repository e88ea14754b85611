package lexer

import (
	"strings"
	"unicode"

	"repro/internal/lang"
)

// This file keeps the sequential scanner Next replaced: every rule probed in
// a fixed order at each token start (comment markers and all multiOps with
// strings.HasPrefix), identifiers after all of them. Next's first-byte
// dispatch must produce the same token stream on every input and language;
// reference_cmp_test.go and FuzzTokenize hold it to that.

// refLexer runs the reference Next over a Lexer's state.
type refLexer struct{ Lexer }

// refTokenize is TokenizeInto driven by the reference scanner.
func refTokenize(src string, l lang.Language) []Token {
	lx := &refLexer{*New(src, l)}
	var out []Token
	for {
		t := lx.Next()
		if t.Kind == EOF {
			return out
		}
		out = append(out, t)
	}
}

func (lx *refLexer) peekAt(off int) byte {
	if lx.pos+off >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+off]
}

func (lx *refLexer) startsWith(s string) bool {
	return strings.HasPrefix(lx.src[lx.pos:], s)
}

// Next returns the next token, or an EOF token at the end of input.
func (lx *refLexer) Next() Token {
	// Skip horizontal whitespace (newlines are tokens).
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		if c == ' ' || c == '\t' || c == '\r' {
			lx.pos++
			continue
		}
		break
	}
	if lx.pos >= len(lx.src) {
		return Token{src: lx.src, Start: int32(lx.pos), End: int32(lx.pos), Kind: EOF, Line: lx.line}
	}
	start, startLine := lx.pos, lx.line
	c := lx.src[lx.pos]

	if c == '\n' {
		lx.pos++
		lx.line++
		return lx.tok(Newline, start, startLine)
	}

	// Preprocessor lines (C/C++): '#' at the start of a (logical) line.
	if lx.syntax.Preprocessor != 0 && c == lx.syntax.Preprocessor && lx.atLineStart(start) {
		for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
			// Handle line continuation.
			if lx.src[lx.pos] == '\\' && lx.peekAt(1) == '\n' {
				lx.pos += 2
				lx.line++
				continue
			}
			lx.pos++
		}
		return lx.tok(Preproc, start, startLine)
	}

	// Line comments.
	for _, lc := range lx.syntax.LineComment {
		if lx.startsWith(lc) {
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
			return lx.tok(Comment, start, startLine)
		}
	}

	// Block comments.
	if lx.syntax.BlockStart != "" && lx.startsWith(lx.syntax.BlockStart) {
		lx.pos += len(lx.syntax.BlockStart)
		for lx.pos < len(lx.src) && !lx.startsWith(lx.syntax.BlockEnd) {
			if lx.src[lx.pos] == '\n' {
				lx.line++
			}
			lx.pos++
		}
		if lx.pos < len(lx.src) {
			lx.pos += len(lx.syntax.BlockEnd)
		}
		return lx.tok(Comment, start, startLine)
	}

	// Triple-quoted strings (Python).
	if lx.syntax.RawTripleQuote && (lx.startsWith(`"""`) || lx.startsWith("'''")) {
		quote := lx.src[lx.pos : lx.pos+3]
		lx.pos += 3
		for lx.pos < len(lx.src) && !lx.startsWith(quote) {
			if lx.src[lx.pos] == '\n' {
				lx.line++
			}
			lx.pos++
		}
		if lx.pos < len(lx.src) {
			lx.pos += 3
		}
		return lx.tok(String, start, startLine)
	}

	// Quoted strings/chars.
	for _, q := range lx.syntax.StringQuotes {
		if c == q {
			lx.pos++
			for lx.pos < len(lx.src) {
				ch := lx.src[lx.pos]
				if ch == '\\' && lx.pos+1 < len(lx.src) {
					lx.pos += 2
					continue
				}
				if ch == '\n' { // unterminated: stop at line end
					break
				}
				lx.pos++
				if ch == q {
					break
				}
			}
			return lx.tok(String, start, startLine)
		}
	}

	// Numbers: ints, floats, hex, exponents, suffixes.
	if isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))) {
		lx.pos++
		for lx.pos < len(lx.src) {
			ch := lx.src[lx.pos]
			if isDigit(ch) || isAlpha(ch) || ch == '.' || ch == '_' {
				lx.pos++
				continue
			}
			// Exponent sign: 1e-5
			if (ch == '+' || ch == '-') && lx.pos > start {
				prev := lx.src[lx.pos-1]
				if prev == 'e' || prev == 'E' {
					lx.pos++
					continue
				}
			}
			break
		}
		return lx.tok(Number, start, startLine)
	}

	// Identifiers and keywords.
	if isAlpha(c) || c == '_' {
		lx.pos++
		for lx.pos < len(lx.src) && (isAlnum(lx.src[lx.pos]) || lx.src[lx.pos] == '_') {
			lx.pos++
		}
		kind := Ident
		if lx.syntax.Keywords[lx.src[start:lx.pos]] {
			kind = Keyword
		}
		return lx.tok(kind, start, startLine)
	}

	// Multi-character operators. Skip "//" which would have been a comment
	// already for C-family; for Python "//" is floor division and there is no
	// "//" line comment, so this is safe either way.
	for _, op := range multiOps {
		if lx.startsWith(op) {
			lx.pos += len(op)
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

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isAlpha(c byte) bool {
	return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c >= 0x80 && unicode.IsLetter(rune(c))
}

func isAlnum(c byte) bool { return isAlpha(c) || isDigit(c) }

// RefTokenize exposes the reference scanner to the corpus test, which sits
// in package lexer_test so it can import langgen.
var RefTokenize = refTokenize
