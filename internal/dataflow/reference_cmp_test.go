package dataflow

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ir"
	"repro/internal/langgen"
	"repro/internal/minic"
)

// checkReference holds AnalyzeTaint to the reference on every function of
// p: the same findings in the same order, argument indices included.
func checkReference(t *testing.T, name string, p *ir.Program) (findings int) {
	t.Helper()
	for _, f := range p.Funcs {
		got, want := AnalyzeTaint(f).Findings, refAnalyzeTaint(f)
		if len(got) != 0 || len(want) != 0 {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, func %s: AnalyzeTaint = %+v, reference = %+v", name, f.Name, got, want)
			}
		}
		findings += len(got)
	}
	return findings
}

// TestAnalyzeTaintMatchesReference runs both solvers over the MiniC
// langgen trees at seeds 1-300, the first 100 seeds also in a denser spec
// (more calls, branches, loops and injected flows), and over vulnapp.
func TestAnalyzeTaintMatchesReference(t *testing.T) {
	total := 0
	for seed := uint64(1); seed <= 300; seed++ {
		spec := langgen.DefaultSpec()
		spec.Seed = seed
		specs := []langgen.Spec{spec}
		if seed <= 100 {
			spec.Files, spec.VulnDensity, spec.CallProb, spec.BranchProb, spec.LoopProb = 2, 0.6, 0.3, 0.3, 0.25
			specs = append(specs, spec)
		}
		for _, s := range specs {
			for _, file := range langgen.Generate(s).Files {
				total += checkReference(t, file.Path, lowerAll(t, []string{file.Content})[0])
			}
		}
	}
	vulnapp, err := os.ReadFile(filepath.Join("..", "..", "examples", "vulnapp", "vulnapp.mc"))
	if err != nil {
		t.Fatal(err)
	}
	total += checkReference(t, "vulnapp", lowerAll(t, []string{string(vulnapp)})[0])
	if total == 0 {
		t.Fatal("the corpus produced no findings")
	}
}

// FuzzTaint lowers fuzzed MiniC and holds AnalyzeTaint to the reference on
// every function. The whole-program pass runs on the same program and must
// not panic or loop.
func FuzzTaint(f *testing.F) {
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
		// Two tainted arguments to one sink; a parameter past the lattice's
		// 64 parameter bits; a source wrapped in a defined function.
		"int f(void) { int a = read_input(); int b = recv(0); memcpy(a, b); return 0; }",
		manyParamsSrc(66),
		wrappedSourceSrc,
		deepChainSrc,
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
		ast, err := minic.Parse(src)
		if err != nil {
			return
		}
		p, err := ir.Lower(ast)
		if err != nil {
			return
		}
		checkReference(t, "input", p)
		AnalyzeProgramTaint(p)
	})
}
