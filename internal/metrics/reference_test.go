package metrics

import (
	"strings"

	"repro/internal/lang"
)

// This file keeps the line classifier CountLines replaced: every comment
// and triple-quote marker probed with strings.HasPrefix at every non-blank
// byte. CountLines must return the same LineCount on every input and
// language; reference_cmp_test.go and FuzzCountLines hold it to that.

// RefCountLines exposes the reference classifier to the corpus test, which
// sits in package metrics_test so it can import langgen.
var RefCountLines = refCountLines

// refCountLines classifies every line of the file. The classifier is a small
// state machine over raw text (not the token stream) so it is exact about
// blank lines and mixed code/comment lines, matching cloc's semantics.
func refCountLines(f File) LineCount {
	syn := lang.SyntaxOf(f.Language)
	var out LineCount
	inBlock := false  // inside a /* ... */ block comment
	inTriple := false // inside a Python triple-quoted string
	tripleQuote := "" // the active triple delimiter

	lines := splitLines(f.Content)
	for _, line := range lines {
		hasCode := false
		hasComment := false
		i := 0
		if inBlock {
			hasComment = true
			end := strings.Index(line, syn.BlockEnd)
			if end < 0 {
				out.bump(line, hasCode, hasComment)
				continue
			}
			inBlock = false
			i = end + len(syn.BlockEnd)
		}
		if inTriple {
			// The string is code (it is a value), matching cloc's treatment
			// of continued string literals.
			hasCode = true
			end := strings.Index(line, tripleQuote)
			if end < 0 {
				out.bump(line, hasCode, hasComment)
				continue
			}
			inTriple = false
			i = end + len(tripleQuote)
		}
	scan:
		for i < len(line) {
			c := line[i]
			if c == ' ' || c == '\t' || c == '\r' {
				i++
				continue
			}
			// Line comments.
			for _, lc := range syn.LineComment {
				if strings.HasPrefix(line[i:], lc) {
					hasComment = true
					break scan
				}
			}
			// Block comments.
			if syn.BlockStart != "" && strings.HasPrefix(line[i:], syn.BlockStart) {
				hasComment = true
				end := strings.Index(line[i+len(syn.BlockStart):], syn.BlockEnd)
				if end < 0 {
					inBlock = true
					break scan
				}
				i += len(syn.BlockStart) + end + len(syn.BlockEnd)
				continue
			}
			// Triple-quoted strings.
			if syn.RawTripleQuote && (strings.HasPrefix(line[i:], `"""`) || strings.HasPrefix(line[i:], "'''")) {
				hasCode = true
				q := line[i : i+3]
				end := strings.Index(line[i+3:], q)
				if end < 0 {
					inTriple = true
					tripleQuote = q
					break scan
				}
				i += 3 + end + 3
				continue
			}
			// Quoted strings: skip to the closing quote so comment markers
			// inside strings do not count.
			isQuote := false
			for _, q := range syn.StringQuotes {
				if c == q {
					isQuote = true
					hasCode = true
					i++
					for i < len(line) {
						if line[i] == '\\' && i+1 < len(line) {
							i += 2
							continue
						}
						if line[i] == q {
							i++
							break
						}
						i++
					}
					break
				}
			}
			if isQuote {
				continue
			}
			hasCode = true
			i++
		}
		out.bump(line, hasCode, hasComment)
	}
	return out
}
