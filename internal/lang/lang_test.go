package lang

import "testing"

func TestStringRoundTrip(t *testing.T) {
	for _, l := range All() {
		if got := ParseLanguage(l.String()); got != l {
			t.Errorf("ParseLanguage(%q) = %v, want %v", l.String(), got, l)
		}
	}
	if ParseLanguage("cobol") != Unknown {
		t.Error("unknown language parsed")
	}
}

func TestParseLanguageAliases(t *testing.T) {
	cases := map[string]Language{
		"c": C, "C": C, " c ": C,
		"cpp": CPP, "c++": CPP, "CXX": CPP,
		"py": Python, "Python": Python,
		"java": Java,
	}
	for in, want := range cases {
		if got := ParseLanguage(in); got != want {
			t.Errorf("ParseLanguage(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestManaged(t *testing.T) {
	if C.Managed() || CPP.Managed() || MiniC.Managed() {
		t.Error("C-family should not be managed")
	}
	if !Java.Managed() || !Python.Managed() {
		t.Error("Java/Python should be managed")
	}
}

func TestFromPath(t *testing.T) {
	cases := map[string]Language{
		"foo/bar.c":    C,
		"foo/bar.h":    C,
		"x.CPP":        CPP,
		"A.java":       Java,
		"pkg/mod.py":   Python,
		"prog.mc":      MiniC,
		"README.md":    Unknown,
		"no_extension": Unknown,
	}
	for path, want := range cases {
		if got := FromPath(path); got != want {
			t.Errorf("FromPath(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestExtensionRoundTrip(t *testing.T) {
	for _, l := range All() {
		if got := FromPath("x" + l.Extension()); got != l {
			t.Errorf("FromPath of %v extension = %v", l, got)
		}
	}
}

func TestSyntaxOf(t *testing.T) {
	c := SyntaxOf(C)
	if c.BlockStart != "/*" || c.BlockEnd != "*/" {
		t.Error("C block comments wrong")
	}
	if c.Preprocessor != '#' {
		t.Error("C preprocessor prefix missing")
	}
	py := SyntaxOf(Python)
	if !py.IndentBlocks || !py.RawTripleQuote {
		t.Error("Python syntax flags wrong")
	}
	if py.BlockStart != "" {
		t.Error("Python has no block comments")
	}
	if !py.FunctionKeywords["def"] {
		t.Error("Python def missing")
	}
	// Unknown falls back to C.
	if SyntaxOf(Unknown).BlockStart != "/*" {
		t.Error("Unknown fallback not C")
	}
}

func TestKeywordSets(t *testing.T) {
	if !SyntaxOf(C).Keywords["while"] {
		t.Error("C missing while")
	}
	if SyntaxOf(C).Keywords["class"] {
		t.Error("C should not have class")
	}
	if !SyntaxOf(CPP).Keywords["class"] || !SyntaxOf(CPP).Keywords["while"] {
		t.Error("C++ keyword merge broken")
	}
	if !SyntaxOf(Java).Keywords["synchronized"] {
		t.Error("Java missing synchronized")
	}
}

func TestDecisionKeywords(t *testing.T) {
	for _, l := range []Language{C, CPP, Java, Python, MiniC} {
		dk := SyntaxOf(l).DecisionKeywords
		if !dk["if"] || !dk["while"] {
			t.Errorf("%v missing basic decision keywords", l)
		}
	}
	if !SyntaxOf(Python).DecisionKeywords["elif"] {
		t.Error("Python elif missing")
	}
	if !SyntaxOf(CPP).DecisionKeywords["catch"] {
		t.Error("C++ catch missing")
	}
}

// TestMarkersStartWithPunctuation pins what the lexer's and line
// counter's first-byte dispatch rely on: every comment marker is non-empty,
// and no marker, quote or preprocessor byte could start an identifier or a
// number (a letter, digit, '_', '.', whitespace or a byte above 0x7f).
func TestMarkersStartWithPunctuation(t *testing.T) {
	punct := func(c byte) bool {
		return c > ' ' && c < 0x7f && c != '_' && c != '.' &&
			!(c >= '0' && c <= '9') && !(c >= 'a' && c <= 'z') && !(c >= 'A' && c <= 'Z')
	}
	for _, l := range append([]Language{Unknown}, All()...) {
		syn := SyntaxOf(l)
		for _, m := range syn.LineComment {
			if m == "" || !punct(m[0]) {
				t.Errorf("%v: line-comment marker %q does not start with punctuation", l, m)
			}
		}
		if m := syn.BlockStart; m != "" && !punct(m[0]) {
			t.Errorf("%v: block-comment marker %q does not start with punctuation", l, m)
		}
		for _, q := range syn.StringQuotes {
			if !punct(q) {
				t.Errorf("%v: quote %q is not punctuation", l, q)
			}
		}
		if p := syn.Preprocessor; p != 0 && !punct(p) {
			t.Errorf("%v: preprocessor byte %q is not punctuation", l, p)
		}
	}
}
