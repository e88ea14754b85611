package lint

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func tree(files ...metrics.File) *metrics.Tree {
	return metrics.NewTree("t", files...)
}

func cfile(src string) metrics.File {
	return metrics.File{Path: "a.c", Content: src}
}

func TestUnsafeCallRule(t *testing.T) {
	rep := Check(tree(cfile(`
void f(char *dst, char *src) {
	strcpy(dst, src);
	gets(dst);
}`)))
	if rep.Count(RuleUnsafeCall) != 2 {
		t.Fatalf("unsafe calls = %d\n%s", rep.Count(RuleUnsafeCall), rep)
	}
}

func TestFormatStringRule(t *testing.T) {
	rep := Check(tree(cfile(`
void f(char *user) {
	printf(user);
	printf("%s", user);
	fprintf(stderr, user);
	fprintf(stderr, "ok %s", user);
}`)))
	if rep.Count(RuleFormatString) != 2 {
		t.Fatalf("format warnings = %d\n%s", rep.Count(RuleFormatString), rep)
	}
}

func TestAssignInConditionRule(t *testing.T) {
	rep := Check(tree(cfile(`
void f(int x, int y) {
	if (x = y) { g(); }
	if (x == y) { g(); }
	while (x = next()) { g(); }
	x = y;
}`)))
	if rep.Count(RuleAssignInCondition) != 2 {
		t.Fatalf("assign-in-cond = %d\n%s", rep.Count(RuleAssignInCondition), rep)
	}
}

func TestUncheckedAllocRule(t *testing.T) {
	rep := Check(tree(cfile(`
void f(void) {
	char *p = malloc(10);
	use(p);
	char *q = malloc(10);
	if (q == NULL) { return; }
	use(q);
}`)))
	if rep.Count(RuleUncheckedAlloc) != 1 {
		t.Fatalf("unchecked alloc = %d\n%s", rep.Count(RuleUncheckedAlloc), rep)
	}
}

func TestGotoRule(t *testing.T) {
	rep := Check(tree(cfile("void f(void) { goto out; out: return; }")))
	if rep.Count(RuleGotoUse) != 1 {
		t.Fatalf("goto = %d", rep.Count(RuleGotoUse))
	}
}

func TestEmptyCatchRule(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "A.java", Content: `
class A {
	void f() {
		try { g(); } catch (Exception e) {}
		try { g(); } catch (Exception e) { log(e); }
	}
}`}))
	if rep.Count(RuleEmptyCatch) != 1 {
		t.Fatalf("empty catch = %d\n%s", rep.Count(RuleEmptyCatch), rep)
	}
}

func TestDeadStoreRuleMiniC(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	int unused = a * 2;
	return a;
}`}))
	if rep.Count(RuleDeadStore) == 0 {
		t.Fatalf("dead store not found\n%s", rep)
	}
}

func TestMissingReturnRuleMiniC(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	if (a) { return 1; }
}`}))
	if rep.Count(RuleMissingReturn) != 1 {
		t.Fatalf("missing return = %d\n%s", rep.Count(RuleMissingReturn), rep)
	}
	clean := Check(tree(metrics.File{Path: "p.mc", Content: `
int g(int a) {
	if (a) { return 1; }
	return 0;
}`}))
	if clean.Count(RuleMissingReturn) != 0 {
		t.Fatalf("clean function flagged\n%s", clean)
	}
}

// TestMissingReturnLine: a function whose fall-through block holds no
// instruction is reported at its declaration, not at line 0.
func TestMissingReturnLine(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `int relay(int dst, int n) {
  return n;
}

int maybe(int a) {
  if (a > 0) {
    return relay(0, a);
  }
}
`}))
	if rep.Count(RuleMissingReturn) != 1 {
		t.Fatalf("missing return = %d\n%s", rep.Count(RuleMissingReturn), rep)
	}
	for _, w := range rep.Warnings {
		if w.Rule == RuleMissingReturn && w.Line != 5 {
			t.Fatalf("missing return reported at line %d, want 5 (maybe's declaration)\n%s", w.Line, rep)
		}
	}
}

func TestInfiniteLoopRuleMiniC(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	while (1) {
		a = a + 1;
	}
	return a;
}`}))
	if rep.Count(RuleInfiniteLoop) != 1 {
		t.Fatalf("infinite loop = %d\n%s", rep.Count(RuleInfiniteLoop), rep)
	}
	withBreak := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	while (1) {
		a = a + 1;
		if (a > 10) { break; }
	}
	return a;
}`}))
	if withBreak.Count(RuleInfiniteLoop) != 0 {
		t.Fatalf("loop with break flagged\n%s", withBreak)
	}
}

func TestDivByZeroRuleMiniC(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a, int b) {
	int x = a / b;
	int y = a / 2;
	return x + y;
}`}))
	if rep.Count(RuleDivByZeroRisk) != 1 {
		t.Fatalf("div warnings = %d\n%s", rep.Count(RuleDivByZeroRisk), rep)
	}
}

func TestDeepExpressionRule(t *testing.T) {
	rep := Check(tree(cfile("int x = (((((((((1)))))))));\n")))
	if rep.Count(RuleDeepExpression) != 1 {
		t.Fatalf("deep expr = %d\n%s", rep.Count(RuleDeepExpression), rep)
	}
}

func TestLongParameterListRule(t *testing.T) {
	rep := Check(tree(cfile("int f(int a, int b, int c, int d, int e, int g, int h) { return 0; }")))
	if rep.Count(RuleLongParameterList) != 1 {
		t.Fatalf("long params = %d\n%s", rep.Count(RuleLongParameterList), rep)
	}
}

func TestReportOrderingAndString(t *testing.T) {
	rep := Check(tree(cfile("void f(char *a) { gets(a); printf(a); }")))
	if rep.Total() < 2 {
		t.Fatalf("total = %d", rep.Total())
	}
	for i := 1; i < len(rep.Warnings); i++ {
		if rep.Warnings[i].Line < rep.Warnings[i-1].Line {
			t.Fatal("warnings not sorted by line")
		}
	}
	s := rep.String()
	if !strings.Contains(s, "a.c:") || !strings.Contains(s, "unsafe-call") {
		t.Fatalf("String() = %q", s)
	}
}

func TestCountsMap(t *testing.T) {
	rep := Check(tree(cfile("void f(char *a) { gets(a); strcpy(a, a); }")))
	counts := rep.Counts()
	if counts[RuleUnsafeCall] != 2 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestCleanFileNoWarnings(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int add(int a, int b) {
	return a + b;
}`}))
	if rep.Total() != 0 {
		t.Fatalf("clean file warnings:\n%s", rep)
	}
}

func TestDeadStoreSkipsTemps(t *testing.T) {
	// A pure expression statement would leave a dead temp; the rule must
	// not report compiler temporaries, only named variables.
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	int dead = a * 2;
	log_event(a + 1);
	return a;
}`}))
	for _, w := range rep.Warnings {
		if w.Rule == RuleDeadStore && w.Msg != "value assigned to dead is never used" {
			t.Fatalf("unexpected dead-store target: %+v", w)
		}
	}
	if rep.Count(RuleDeadStore) != 1 {
		t.Fatalf("dead stores = %d\n%s", rep.Count(RuleDeadStore), rep)
	}
}

func TestDeadStoreReportsLocalNamedLikeTemp(t *testing.T) {
	// A program variable is reported whatever its name, t1 included.
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	int t1 = a;
	return a;
}`}))
	if rep.Count(RuleDeadStore) != 1 {
		t.Fatalf("dead stores = %d\n%s", rep.Count(RuleDeadStore), rep)
	}
	for _, w := range rep.Warnings {
		if w.Rule == RuleDeadStore && w.Msg != "value assigned to t1 is never used" {
			t.Fatalf("unexpected dead-store target: %+v", w)
		}
	}
}

func TestASTRulesWalkNestedConstructs(t *testing.T) {
	// Exercise the walker across for-loops, nested blocks, and else arms.
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a, int b) {
	for (int i = 0; i < a; i++) {
		if (i % 2) {
			a = a / b;
		} else {
			{
				b = b / a;
			}
		}
	}
	while (1) {
		a = a + 1;
		if (a > 100) { break; }
	}
	return a;
}`}))
	if rep.Count(RuleDivByZeroRisk) != 2 {
		t.Fatalf("div warnings = %d\n%s", rep.Count(RuleDivByZeroRisk), rep)
	}
	if rep.Count(RuleInfiniteLoop) != 0 {
		t.Fatalf("loop with break flagged\n%s", rep)
	}
}

func TestInfiniteLoopReturnCountsAsExit(t *testing.T) {
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	while (1) {
		a = a + 1;
		if (a > 5) { return a; }
	}
}`}))
	if rep.Count(RuleInfiniteLoop) != 0 {
		t.Fatalf("loop with return flagged\n%s", rep)
	}
}

func TestInfiniteLoopNestedBreakDoesNotCount(t *testing.T) {
	// The inner loop's break does not exit the outer while(1).
	rep := Check(tree(metrics.File{Path: "p.mc", Content: `
int f(int a) {
	while (1) {
		while (a > 0) {
			a = a - 1;
			break;
		}
		a = a + 1;
	}
	return a;
}`}))
	if rep.Count(RuleInfiniteLoop) != 1 {
		t.Fatalf("outer infinite loop missed (inner break should not count)\n%s", rep)
	}
}
