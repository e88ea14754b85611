package metrics_test

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// languages is every language the registry answers for, Unknown (C's
// fallback syntax) included.
var languages = append([]lang.Language{lang.Unknown}, lang.All()...)

// edgeInputs are the inputs where a dispatch slip would show first:
// unterminated literals and comments, triple quotes outside Python, bytes
// at and above 0x80, CRLF line ends and '#' away from a line start.
var edgeInputs = []string{
	"", "\n", "\n\n", " \t\r", "x\n\n", "\\", "\x00",
	`"unterminated`, `'x`, `"ends in escape\`, "\"a // b\" // c", "'#' # c",
	"/* never closed", "/*/", "/**/ x", "/* a\n b\n", "x /* a */ y /* b\n c */ d", "*/ x",
	`x = """doc""" y`, `'''`, `""""`, "\"\"\"open\nstill\n", "'''a\n'''\n", `""`, `"""""`, "x\n\"\"\"\n# in\n\"\"\" # c",
	"\xc3\xa9t\xe9 = 1;", "\xff\xfe\x80", "// \xe9\n", "\x80abc",
	"int x;\r\n// c\r\n/* a\r\n b */\r\n\r\n#define A 1\r\n",
	"int a; # stray", "x = 1 # comment\n", "  #define A\n", "# c\n  # d\n", "a#b\n#c",
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

// TestCountLinesMatchesReference holds CountLines' first-byte gating to
// the sequential reference classifier on the corpus in every language.
func TestCountLinesMatchesReference(t *testing.T) {
	inputs := corpus(t)
	if len(inputs) < 100 {
		t.Fatalf("corpus has only %d inputs", len(inputs))
	}
	for name, src := range inputs {
		for _, l := range languages {
			f := metrics.File{Path: name, Language: l, Content: src}
			if got, want := metrics.CountLines(f), metrics.RefCountLines(f); got != want {
				t.Errorf("%s as %v: got %+v, want %+v", name, l, got, want)
			}
		}
	}
}

// TestCountLinesMatchesReferenceRandom compares the classifiers on random
// text drawn mostly from the bytes the gating branches on.
func TestCountLinesMatchesReferenceRandom(t *testing.T) {
	const alphabet = "/*#\"'\\\n\r\t x1;\xc3\xa9\x80"
	rng := stats.NewRNG(21)
	for i := 0; i < 4000; i++ {
		b := make([]byte, rng.Intn(64))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		for _, l := range languages {
			f := metrics.File{Language: l, Content: string(b)}
			if got, want := metrics.CountLines(f), metrics.RefCountLines(f); got != want {
				t.Fatalf("%q as %v: got %+v, want %+v", f.Content, l, got, want)
			}
		}
	}
}

// FuzzCountLines holds CountLines to the reference classifier on arbitrary
// input in every language, from the edge inputs.
func FuzzCountLines(f *testing.F) {
	for _, s := range edgeInputs {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		for _, l := range languages {
			f := metrics.File{Language: l, Content: src}
			if got, want := metrics.CountLines(f), metrics.RefCountLines(f); got != want {
				t.Fatalf("%q as %v: got %+v, want %+v", src, l, got, want)
			}
		}
	})
}
