package metrics

import (
	"strings"

	"repro/internal/lang"
)

// LineCount classifies the physical lines of a file the way cloc does:
// every line is exactly one of blank, comment, or code. A line holding both
// code and a comment counts as code.
type LineCount struct {
	Blank   int
	Comment int
	Code    int
}

// Total returns the number of physical lines.
func (c LineCount) Total() int { return c.Blank + c.Comment + c.Code }

// Add accumulates another count.
func (c *LineCount) Add(o LineCount) {
	c.Blank += o.Blank
	c.Comment += o.Comment
	c.Code += o.Code
}

// CountLines classifies every line of the file. The classifier is a small
// state machine over raw text (not the token stream) so it is exact about
// blank lines and mixed code/comment lines, matching cloc's semantics.
func CountLines(f File) LineCount {
	return countLines(splitLines(f.Content), lang.SyntaxOf(f.Language))
}

// countLines classifies lines as split by splitLines. Like lexer.Next it
// dispatches on each byte: a comment or triple-quote marker is compared only
// at a byte equal to the marker's first byte, so a run of code costs one
// pass of byte compares. The sequential reference it must match lives in
// reference_test.go.
func countLines(lines []string, syn lang.Syntax) LineCount {
	var out LineCount
	inBlock := false  // inside a /* ... */ block comment
	inTriple := false // inside a Python triple-quoted string
	tripleQuote := "" // the active triple delimiter

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
				if c == lc[0] && strings.HasPrefix(line[i:], lc) {
					hasComment = true
					break scan
				}
			}
			// Block comments.
			if bs := syn.BlockStart; bs != "" && c == bs[0] && strings.HasPrefix(line[i:], bs) {
				hasComment = true
				end := strings.Index(line[i+len(bs):], syn.BlockEnd)
				if end < 0 {
					inBlock = true
					break scan
				}
				i += len(bs) + end + len(syn.BlockEnd)
				continue
			}
			// Triple-quoted strings.
			if syn.RawTripleQuote && (c == '"' || c == '\'') && i+2 < len(line) && line[i+1] == c && line[i+2] == c {
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

// bump classifies one line given what the scan found.
func (c *LineCount) bump(line string, hasCode, hasComment bool) {
	switch {
	case hasCode:
		c.Code++
	case hasComment:
		c.Comment++
	case strings.TrimSpace(line) == "":
		c.Blank++
	default:
		// Unreachable: a non-blank line without code or comment would have
		// set hasCode. Kept for totality.
		c.Code++
	}
}

// splitLines splits content into physical lines without the trailing
// newline. A trailing newline does not create a phantom empty line.
func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// CountTree sums line counts over an entire tree, and per language.
func CountTree(t *Tree) (total LineCount, perLang map[lang.Language]LineCount) {
	perLang = map[lang.Language]LineCount{}
	for _, f := range t.Files {
		c := CountLines(f)
		total.Add(c)
		pl := perLang[f.Language]
		pl.Add(c)
		perLang[f.Language] = pl
	}
	return total, perLang
}
