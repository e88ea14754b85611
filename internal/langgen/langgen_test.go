package langgen

import (
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/minic"
)

func TestGenerateDeterministic(t *testing.T) {
	spec := DefaultSpec()
	a := Generate(spec)
	b := Generate(spec)
	if len(a.Files) != len(b.Files) {
		t.Fatal("file counts differ")
	}
	for i := range a.Files {
		if a.Files[i].Content != b.Files[i].Content {
			t.Fatalf("file %d differs between runs", i)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	specA := DefaultSpec()
	specB := DefaultSpec()
	specB.Seed = 999
	a := Generate(specA)
	b := Generate(specB)
	if a.Files[0].Content == b.Files[0].Content {
		t.Fatal("different seeds produced identical output")
	}
}

func TestGeneratedMiniCParses(t *testing.T) {
	spec := DefaultSpec()
	spec.Files = 6
	spec.FuncsPerFile = 8
	tree := Generate(spec)
	for _, f := range tree.Files {
		if _, err := minic.Parse(f.Content); err != nil {
			t.Fatalf("%s does not parse: %v\n----\n%s", f.Path, err, f.Content)
		}
	}
}

func TestGeneratedMiniCLowersAndAnalyzes(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 7
	tree := Generate(spec)
	for _, f := range tree.Files {
		prog, err := minic.Parse(f.Content)
		if err != nil {
			t.Fatal(err)
		}
		lowered, err := ir.Lower(prog)
		if err != nil {
			t.Fatalf("%s does not lower: %v", f.Path, err)
		}
		for _, fn := range lowered.Funcs {
			dataflow.LiveVariables(fn) // must not panic or loop
		}
	}
}

func TestVulnInjectionDetectable(t *testing.T) {
	spec := DefaultSpec()
	spec.VulnDensity = 1.0 // every function gets the pattern
	spec.Files = 2
	tree := Generate(spec)
	// The injected source->sink flow must be visible to the taint analysis.
	total := 0
	for _, f := range tree.Files {
		prog, err := minic.Parse(f.Content)
		if err != nil {
			t.Fatal(err)
		}
		lowered, err := ir.Lower(prog)
		if err != nil {
			t.Fatal(err)
		}
		total += dataflow.CountTaintedSinks(lowered)
	}
	if total < spec.Files*spec.FuncsPerFile {
		t.Fatalf("tainted sinks = %d, want >= %d", total, spec.Files*spec.FuncsPerFile)
	}
}

func TestVulnDensityZero(t *testing.T) {
	spec := DefaultSpec()
	spec.VulnDensity = 0
	_, labels := GenerateLabeled(spec)
	for i, v := range labels {
		if v {
			t.Fatalf("file %d labeled vulnerable at density 0", i)
		}
	}
}

func TestLabelsMatchLintFindings(t *testing.T) {
	spec := DefaultSpec()
	spec.Seed = 21
	spec.VulnDensity = 0.5
	tree, labels := GenerateLabeled(spec)
	for i, f := range tree.Files {
		rep := lint.Check(metrics.NewTree("one", f))
		hasUnsafe := rep.Count(lint.RuleUnsafeCall) > 0
		// Injected vulns use strcpy/sprintf/memcpy/system; system is not an
		// "unsafe call" lint rule, so only check the forward direction:
		// a file with unsafe-call findings must be labeled vulnerable.
		if hasUnsafe && !labels[i] {
			t.Fatalf("file %d has unsafe calls but is labeled clean", i)
		}
	}
}

func TestPythonGeneration(t *testing.T) {
	spec := DefaultSpec()
	spec.Language = lang.Python
	tree := Generate(spec)
	if len(tree.Files) != spec.Files {
		t.Fatalf("files = %d", len(tree.Files))
	}
	f := tree.Files[0]
	if !strings.HasSuffix(f.Path, ".py") {
		t.Fatalf("path = %s", f.Path)
	}
	fns := metrics.Cyclomatic(f)
	if len(fns) != spec.FuncsPerFile {
		t.Fatalf("functions detected = %d, want %d", len(fns), spec.FuncsPerFile)
	}
}

func TestJavaGeneration(t *testing.T) {
	spec := DefaultSpec()
	spec.Language = lang.Java
	tree := Generate(spec)
	f := tree.Files[0]
	if !strings.HasSuffix(f.Path, ".java") {
		t.Fatalf("path = %s", f.Path)
	}
	fns := metrics.Cyclomatic(f)
	if len(fns) != spec.FuncsPerFile {
		t.Fatalf("functions detected = %d, want %d", len(fns), spec.FuncsPerFile)
	}
}

func TestGeneratedSizeScalesWithSpec(t *testing.T) {
	small := DefaultSpec()
	small.Files, small.FuncsPerFile, small.StmtsPerFunc = 1, 2, 3
	big := DefaultSpec()
	big.Files, big.FuncsPerFile, big.StmtsPerFunc = 4, 10, 20
	smallLoC, _ := metrics.CountTree(Generate(small))
	bigLoC, _ := metrics.CountTree(Generate(big))
	if bigLoC.Code <= smallLoC.Code*2 {
		t.Fatalf("size does not scale: %d vs %d", smallLoC.Code, bigLoC.Code)
	}
}

func TestCommentRateProducesComments(t *testing.T) {
	spec := DefaultSpec()
	spec.CommentRate = 0.9
	spec.Language = lang.C
	tree := Generate(spec)
	total, _ := metrics.CountTree(tree)
	if total.Comment == 0 {
		t.Fatal("no comments generated at rate 0.9")
	}
}

func TestFuncLabels(t *testing.T) {
	spec := DefaultSpec()
	spec.Files, spec.FuncsPerFile = 4, 6
	spec.VulnDensity = 0.4
	tree, fileLabels, funcLabels := GenerateFuncLabeled(spec)
	if len(funcLabels) != spec.Files*spec.FuncsPerFile {
		t.Fatalf("labels for %d functions, want %d", len(funcLabels), spec.Files*spec.FuncsPerFile)
	}
	// File labels are the OR of their functions' labels; function names are
	// globally unique and partition into files by counter ranges.
	anyVuln := false
	for _, v := range funcLabels {
		if v {
			anyVuln = true
		}
	}
	if !anyVuln {
		t.Fatal("no function labeled vulnerable at density 0.4")
	}
	// Every labeled-vulnerable function's body must actually contain the
	// injected pattern.
	all := ""
	for _, f := range tree.Files {
		all += f.Content
	}
	for name, v := range funcLabels {
		if v && !strings.Contains(all, name) {
			t.Errorf("labeled function %s not present in generated source", name)
		}
	}
	// GenerateLabeled stays consistent with the func-labeled variant.
	_, fileLabels2 := GenerateLabeled(spec)
	if len(fileLabels) != len(fileLabels2) {
		t.Fatalf("file label lengths differ: %d vs %d", len(fileLabels), len(fileLabels2))
	}
	for i := range fileLabels {
		if fileLabels[i] != fileLabels2[i] {
			t.Errorf("file %d label differs between Labeled and FuncLabeled", i)
		}
	}
}
