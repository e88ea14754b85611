package lint

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/metrics"
)

// FuzzLint feeds client-supplied bytes through everything lint runs on
// them: the token rules, and for input that parses as MiniC, lowering and
// the dead-store dataflow. The daemon runs that outside the per-file panic
// boundary (Session.Apply lints each touched file on the worker pool, and
// a degraded file's lint is recounted on its worker), so a panic here would
// end the process. Lint must never panic, and CheckFile must report exactly
// the warnings Check reports for a one-file tree, which is what lets a
// session keep tree totals by per-file delta.
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
	for seed := uint64(1); seed <= 3; seed++ {
		spec := langgen.DefaultSpec()
		spec.Files, spec.Seed = 2, seed
		for _, file := range langgen.Generate(spec).Files {
			seeds = append(seeds, file.Content)
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		file := metrics.File{Path: "f.mc", Language: lang.MiniC, Content: src}
		got := CheckFile(file).Warnings
		sort.SliceStable(got, func(i, j int) bool { return got[i].Line < got[j].Line })
		want := Check(metrics.NewTree("t", file)).Warnings
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("CheckFile reports %v, Check over the one-file tree %v", got, want)
		}
	})
}
