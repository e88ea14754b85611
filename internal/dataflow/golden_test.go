package dataflow

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/langgen"
	"repro/internal/minic"
)

// The taint golden pins both taint passes over a fixed corpus: every
// function of the MiniC langgen trees at seeds 1-200, and
// examples/vulnapp. One line per tree holds the finding counts and a
// SHA-256 digest of the full rendering (intraprocedural findings per
// function; whole-program findings, MaxChain and every summary), so a
// change to any finding, its order, or a summary shows. Regenerate with
//
//	go test ./internal/dataflow -run TaintGolden -update-taint-golden
//
// only when the analysis is meant to change, and bump
// core.AnalysisVersion with it.

var updateTaintGolden = flag.Bool("update-taint-golden", false, "rewrite the taint golden from current output")

const taintGoldenPath = "testdata/taint.golden.txt"

// goldenSeeds is the number of langgen seeds the golden covers.
const goldenSeeds = 200

// renderTaint writes every taint output for the programs of one tree and
// returns the line's counts.
func renderTaint(b *strings.Builder, progs []*ir.Program) (funcs, intra, inter, chain int) {
	for i, p := range progs {
		fmt.Fprintf(b, "program %d\n", i)
		for _, f := range p.Funcs {
			funcs++
			fmt.Fprintf(b, "func %s\n", f.Name)
			for _, tf := range AnalyzeTaint(f).Findings {
				intra++
				fmt.Fprintf(b, "  T %s %s %d %d\n", tf.Func, tf.Sink, tf.Line, tf.Arg)
			}
		}
		res := AnalyzeProgramTaint(p)
		fmt.Fprintf(b, "maxchain %d\n", res.MaxChain)
		if res.MaxChain > chain {
			chain = res.MaxChain
		}
		for _, f := range res.Findings {
			inter++
			fmt.Fprintf(b, "  I %s %s %d %d\n", f.Func, f.Sink, f.Line, f.Depth)
		}
		names := make([]string, 0, len(res.Summaries))
		for name := range res.Summaries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := res.Summaries[name]
			fmt.Fprintf(b, "summary %s ret=%v always=%v\n", s.Name, s.ReturnFromParams, s.ReturnAlways)
			params := make([]int, 0, len(s.ParamSinks))
			for i := range s.ParamSinks {
				params = append(params, i)
			}
			sort.Ints(params)
			for _, i := range params {
				for _, r := range s.ParamSinks[i] {
					fmt.Fprintf(b, "  P %d %s %d %d\n", i, r.Sink, r.Line, r.Depth)
				}
			}
			for _, r := range s.LocalSinks {
				fmt.Fprintf(b, "  L %s %d %d\n", r.Sink, r.Line, r.Depth)
			}
		}
	}
	return
}

func lowerAll(t *testing.T, sources []string) []*ir.Program {
	t.Helper()
	var out []*ir.Program
	for _, src := range sources {
		ast, err := minic.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Lower(ast)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// langgenSources returns the MiniC files of the default-spec tree at seed.
func langgenSources(seed uint64) []string {
	spec := langgen.DefaultSpec()
	spec.Seed = seed
	var out []string
	for _, f := range langgen.Generate(spec).Files {
		out = append(out, f.Content)
	}
	return out
}

func goldenLine(t *testing.T, name string, sources []string) string {
	var b strings.Builder
	funcs, intra, inter, chain := renderTaint(&b, lowerAll(t, sources))
	return fmt.Sprintf("%s funcs=%d intra=%d inter=%d chain=%d %x",
		name, funcs, intra, inter, chain, sha256.Sum256([]byte(b.String())))
}

func TestTaintGolden(t *testing.T) {
	var lines []string
	for seed := uint64(1); seed <= goldenSeeds; seed++ {
		lines = append(lines, goldenLine(t, fmt.Sprintf("langgen-%03d", seed), langgenSources(seed)))
	}
	vulnapp, err := os.ReadFile(filepath.Join("..", "..", "examples", "vulnapp", "vulnapp.mc"))
	if err != nil {
		t.Fatal(err)
	}
	lines = append(lines, goldenLine(t, "vulnapp", []string{string(vulnapp)}))
	got := strings.Join(lines, "\n") + "\n"

	if *updateTaintGolden {
		if err := os.MkdirAll(filepath.Dir(taintGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(taintGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(taintGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("golden has %d lines, the corpus %d", len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("taint output differs from the golden:\n got  %s\n want %s", lines[i], wantLines[i])
		}
	}
}
