package lexer_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/lexer"
	"repro/internal/stats"
)

// languages is every language the registry answers for, Unknown (C's
// fallback syntax) included.
var languages = append([]lang.Language{lang.Unknown}, lang.All()...)

// edgeInputs are the inputs where a dispatch slip would show first:
// unterminated literals and comments, triple quotes outside Python, bytes
// at and above 0x80, CRLF line ends, '#' away from a line start, and every
// multi-character operator family.
var edgeInputs = []string{
	"", "\n", "\n\n", " \t\r", "\x00", "\\", "\\\n",
	`"unterminated`, `'x`, `"ends in escape\`, "\"escape then newline\\\nx\"", "'a\nb'",
	"/* never closed", "/*/", "/**/", "/* a\n b\n", "x /* a */ y /* b",
	`x = """doc""" y`, `'''`, `""""`, "\"\"\"open\nstill\n", "'''a\n'''\n", `""`, `"""""`,
	"\xc3\xa9t\xe9 = 1;", "\xff\xfe\x80", "caf\xe9(x)", "\xb5x \xaa\xba \xd7\xf7", "\x80abc",
	"int x;\r\n// c\r\n/* a\r\n b */\r\n#define A 1\r\n",
	"int a; # stray", "x = 1 # comment\n", "  #define A\n", "#\\\n x\n#", "a#b\n#c",
	"1e-5 1E+3 0x1Fu .5 5. 1.e-2 ..5 ...", "a->*b a->b a::b", "x<<=2 y>>=3 a<<b c>>d",
	"a//b a/=b a**b", "a===b a!==b a==b a!=b", "a&&b||c ++i --j", "a+=1 b-=2 c*=3 d%=4 e&=5 f|=6 g^=7",
	"f(a[1], {b; c: d})", "@$`?~", "_x9 __ x_ 9x",
}

// corpus gathers the comparison inputs: langgen trees in every generated
// language at several seeds, every file of the module outside hidden
// directories, and the edge inputs.
func corpus(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, l := range lang.All() {
		for _, seed := range []uint64{1, 2, 3, 7, 11} {
			spec := langgen.DefaultSpec()
			spec.Language, spec.Seed, spec.CommentRate = l, seed, 0.4
			for _, f := range langgen.Generate(spec).Files {
				out[fmt.Sprintf("langgen/%v/%d/%s", l, seed, f.Path)] = f.Content
			}
		}
	}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := d.Info()
		if err != nil || !info.Mode().IsRegular() || info.Size() > 1<<20 {
			return err
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range edgeInputs {
		out[fmt.Sprintf("edge/%d", i)] = s
	}
	return out
}

// sameTokens reports where two token streams first differ.
func sameTokens(got, want []lexer.Token) error {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("token %d: got %v %q @%d-%d line %d, want %v %q @%d-%d line %d", i,
				got[i].Kind, got[i].Text(), got[i].Start, got[i].End, got[i].Line,
				want[i].Kind, want[i].Text(), want[i].Start, want[i].End, want[i].Line)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("got %d tokens, want %d", len(got), len(want))
	}
	return nil
}

// TestTokenizeMatchesReference holds Next's first-byte dispatch to the
// sequential reference scanner, token for token, on the corpus in every
// language.
func TestTokenizeMatchesReference(t *testing.T) {
	inputs := corpus(t)
	if len(inputs) < 100 {
		t.Fatalf("corpus has only %d inputs", len(inputs))
	}
	for name, src := range inputs {
		for _, l := range languages {
			if err := sameTokens(lexer.Tokenize(src, l), lexer.RefTokenize(src, l)); err != nil {
				t.Errorf("%s as %v: %v", name, l, err)
			}
		}
	}
}

// TestTokenizeMatchesReferenceRandom compares the scanners on random text
// drawn mostly from the bytes the dispatch branches on.
func TestTokenizeMatchesReferenceRandom(t *testing.T) {
	const alphabet = "/*#\"'\\\n\r\t .eE+-<>=!&|:^%0123456789_aZxif()[]{},;\xc3\xa9\x80\xff"
	rng := stats.NewRNG(21)
	for i := 0; i < 4000; i++ {
		b := make([]byte, rng.Intn(64))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		src := string(b)
		for _, l := range languages {
			if err := sameTokens(lexer.Tokenize(src, l), lexer.RefTokenize(src, l)); err != nil {
				t.Fatalf("%q as %v: %v", src, l, err)
			}
		}
	}
}

// FuzzTokenize holds Next to the reference scanner on arbitrary input in
// every language. It starts from FuzzParse's seeds (internal/minic) and the
// edge inputs.
func FuzzTokenize(f *testing.F) {
	for _, s := range []string{
		"",
		"int main(void) { return 0; }",
		"int f(int x) { if (x > 0) { return x; } return -x; }",
		"int g(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }",
		"int h(void) { int a[4]; while (a[0] < 10) { a[0] = a[0] + 1; break; } return a[0]; }",
		"int main( { this does not parse",
		"@@@ not c at all (((",
		"int\nf(void)\n{\nbogus!\n}",
	} {
		f.Add(s)
	}
	for _, s := range edgeInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		for _, l := range languages {
			if err := sameTokens(lexer.Tokenize(src, l), lexer.RefTokenize(src, l)); err != nil {
				t.Fatalf("%q as %v: %v", src, l, err)
			}
		}
	})
}
