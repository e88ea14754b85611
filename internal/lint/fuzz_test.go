package lint

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/metrics"
)

// fuzzLanguage maps FuzzLint's language byte onto lang.Unknown through
// lang.MiniC: the five languages the lexer knows and Unknown, which lints
// with C's syntax.
func fuzzLanguage(b uint8) lang.Language { return lang.Language(int(b) % int(lang.MiniC+1)) }

// FuzzLint feeds client-supplied bytes through everything lint runs on
// them, in any language: the token rules at that language, and for input
// that parses as MiniC (whatever its language), lowering, the dead-store
// dataflow and the AST walks. The daemon runs that outside the per-file
// panic boundary (Session.Apply lints each touched file in its own
// language on the worker pool, and a degraded file's lint is recounted on
// its worker), so a panic here would end the process. Lint must never
// panic, and CheckFile on the file's ir.Parse must report exactly the
// warnings Check reports for a one-file tree, which is what lets a session
// keep tree totals by per-file delta.
func FuzzLint(f *testing.F) {
	seeds := []string{
		// FuzzParse's seeds.
		"",
		"int main(void) { return 0; }",
		"int f(int x) { if (x > 0) { return x; } return -x; }",
		"int g(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }",
		"int h(void) { int a[4]; while (a[0] < 10) { a[0] = a[0] + 1; break; } return a[0]; }",
		"int main( { this does not parse",
		"@@@ not c at all (((",
		"int\nf(void)\n{\nbogus!\n}",
		// One seed per AST rule.
		"int f(int a){int t1 = a; return a;}",
		"int spin(int n) { while (1) { n = n + 1; } return n; }",
		"int div(int a, int b) { return a / b; }",
	}
	for _, s := range seeds {
		f.Add(uint8(lang.MiniC), s)
	}
	// One seed per other language whose token rules see what MiniC's do
	// not: a quote C strings take and MiniC strings do not, a catch
	// keyword, a Python comment.
	quoted := "int f(void) { int s = 'gets(x)'; return s; }"
	f.Add(uint8(lang.Unknown), quoted)
	f.Add(uint8(lang.C), quoted)
	f.Add(uint8(lang.CPP), "void f() { try { g(); } catch (...) {} }")
	f.Add(uint8(lang.Java), "class A { void f() { try { g(); } catch (Exception e) {} } }")
	f.Add(uint8(lang.Python), "# gets(buf)\ndef f(x):\n    return x\n")
	for _, l := range []lang.Language{lang.MiniC, lang.Python, lang.Java} {
		for seed := uint64(1); seed <= 3; seed++ {
			spec := langgen.DefaultSpec()
			spec.Language, spec.Files, spec.Seed = l, 2, seed
			for _, file := range langgen.Generate(spec).Files {
				f.Add(uint8(l), file.Content)
			}
		}
	}
	f.Fuzz(func(t *testing.T, lb uint8, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		// The path names no language, so the one-file tree keeps the
		// fuzzed one, Unknown included.
		file := metrics.File{Path: "f", Language: fuzzLanguage(lb), Content: src}
		ast, prog, _ := ir.Parse(src)
		got := CheckFile(file, ast, prog).Warnings
		sort.SliceStable(got, func(i, j int) bool { return got[i].Line < got[j].Line })
		want := Check(metrics.NewTree("t", file)).Warnings
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CheckFile reports %v, Check over the one-file tree %v", got, want)
		}
	})
}
