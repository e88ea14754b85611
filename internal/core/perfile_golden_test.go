package core

// The per-file golden pins what every per-file analysis makes of one file:
// lint.CheckFile's warnings, findings.AnalyzeFile's list and its three
// counts, and enrichFile's record, status and detail, plus funcrank.Rank's
// bytes per tree. The corpus is servebench-shaped langgen trees (two files
// of three functions of about six statements) in all five languages at
// seeds 1-50, examples/vulnapp, and edge files for the language and parse
// gates: a C file with an #include (parse-skip), a C++ file that parses as
// MiniC (lint's AST rules, no deep passes), and files of unknown language
// at a .c and a .py path (every analysis runs at the file's own language,
// whatever its path names). One line per tree holds its counts and a
// SHA-256 digest of the full rendering.
// Regenerate with
//
//	go test ./internal/core -run PerFileGolden -update-perfile-golden
//
// only when an analysis is meant to change, and bump AnalysisVersion with
// it.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/findings"
	"repro/internal/funcrank"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/langgen"
	"repro/internal/lint"
	"repro/internal/metrics"
)

var updatePerFileGolden = flag.Bool("update-perfile-golden", false, "rewrite the per-file golden from current output")

const perFileGoldenPath = "testdata/perfile.golden.txt"

// perFileSeeds is the number of langgen seeds per language the golden
// covers.
const perFileSeeds = 50

// edgeTaintSource parses as MiniC: taint flows into two sinks, a dead
// store, a division by a parameter, a loop without break and a function
// that can end without a return. Its comment line holds an unsafe call
// only a lexer without C comments sees.
const edgeTaintSource = `// legacy: gets(buf) was here
int relay(int dst, int n) {
  int d = read_input();
  int unused = 3;
  strcpy(dst, d);
  system(d);
  return 10 / n;
}

int spin(int n) {
  while (1) {
    n = n + 1;
  }
  return n;
}

int maybe(int a) {
  if (a > 0) {
    return relay(0, a);
  }
}
`

// perFileEdgeFiles are the hand-written gate cases, one tree each.
func perFileEdgeFiles() []metrics.File {
	return []metrics.File{
		{Path: "edge/include.c", Language: lang.C, Content: "#include <string.h>\n" + edgeTaintSource},
		{Path: "edge/minic.cpp", Language: lang.CPP, Content: edgeTaintSource},
		{Path: "edge/unknown.c", Language: lang.Unknown, Content: edgeTaintSource},
		{Path: "edge/unknown.py", Language: lang.Unknown, Content: edgeTaintSource},
	}
}

// perFileTree is the servebench-shaped langgen tree of one language and
// seed.
func perFileTree(l lang.Language, seed uint64) *metrics.Tree {
	spec := langgen.DefaultSpec()
	spec.Language = l
	spec.Files = 2
	spec.FuncsPerFile = 3
	spec.StmtsPerFunc = 6
	spec.Seed = seed
	return langgen.Generate(spec)
}

// renderPerFile writes every per-file output for the files of one tree and
// funcrank's ranking of it, and returns the line's counts.
func renderPerFile(t *testing.T, b *strings.Builder, tree *metrics.Tree) (warnings, found, skipped int) {
	t.Helper()
	for _, f := range tree.Files {
		fmt.Fprintf(b, "file %s %s\n", f.Path, f.Language)
		ast, prog, _ := ir.Parse(f.Content)
		rep := lint.CheckFile(f, ast, prog)
		warnings += rep.Total()
		b.WriteString(rep.String())

		// AnalyzeFile leaves File to its caller; the rendering names the
		// path as a collector does.
		fa := findings.AnalyzeFile(f.Language, f.Content, ast, prog)
		found += len(fa.Findings)
		fmt.Fprintf(b, "findings inter=%d chain=%d lint=%d\n", fa.InterTaintSinks, fa.TaintMaxChain, fa.LintWarnings)
		for _, fd := range fa.Findings {
			fmt.Fprintf(b, "  %s %d %s:%d %s %q\n", fd.Rule, fd.CWE, f.Path, fd.Line, fd.Severity, fd.Message)
		}

		enr, status, detail := enrichFile(f.Language, f.Content, nil)
		if status == StatusParseSkip {
			skipped++
		}
		rec, err := json.Marshal(enr)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "enrich %s %q %s\n", status, detail, rec)
	}
	rk, err := funcrank.Rank(context.Background(), tree, funcrank.Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(rk)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "rank %s\n", out)
	return
}

func perFileGoldenLine(t *testing.T, name string, tree *metrics.Tree) string {
	var b strings.Builder
	warnings, found, skipped := renderPerFile(t, &b, tree)
	return fmt.Sprintf("%s files=%d lint=%d findings=%d parse-skip=%d %x",
		name, len(tree.Files), warnings, found, skipped, sha256.Sum256([]byte(b.String())))
}

func TestPerFileGolden(t *testing.T) {
	var lines []string
	for _, l := range []lang.Language{lang.MiniC, lang.C, lang.CPP, lang.Java, lang.Python} {
		for seed := uint64(1); seed <= perFileSeeds; seed++ {
			name := fmt.Sprintf("%s-%02d", strings.ToLower(l.String()), seed)
			lines = append(lines, perFileGoldenLine(t, name, perFileTree(l, seed)))
		}
	}
	vulnapp, err := os.ReadFile(filepath.Join("..", "..", "examples", "vulnapp", "vulnapp.mc"))
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, perFileGoldenLine(t, "vulnapp",
		metrics.NewTree("vulnapp", metrics.File{Path: "vulnapp.mc", Language: lang.MiniC, Content: string(vulnapp)})))
	for _, f := range perFileEdgeFiles() {
		// Built by hand: metrics.NewTree would infer the unknown
		// languages from the path.
		lines = append(lines, perFileGoldenLine(t, f.Path, &metrics.Tree{Name: "edge", Files: []metrics.File{f}}))
	}
	got := strings.Join(lines, "\n") + "\n"

	if *updatePerFileGolden {
		if err := os.WriteFile(perFileGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(perFileGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d lines, the corpus %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("per-file output differs from the golden:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
