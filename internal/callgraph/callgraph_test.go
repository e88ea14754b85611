package callgraph

import (
	"testing"

	"repro/internal/ir"
)

const sample = `
int leaf(int x) { return x + 1; }
int middle(int x) { return leaf(x) + leaf(x + 1); }
int top(int x) {
	int a = middle(x);
	int b = leaf(a);
	log_event(b);
	return b;
}
int orphan(int x) { return external_thing(x); }
`

func build(t *testing.T, src string) *Graph {
	t.Helper()
	return Build(ir.MustLowerSource(src))
}

func TestBuildEdges(t *testing.T) {
	g := build(t, sample)
	if got := g.Callees["top"]; len(got) != 2 || got[0] != "leaf" || got[1] != "middle" {
		t.Fatalf("top callees = %v", got)
	}
	if got := g.Callees["middle"]; len(got) != 1 || got[0] != "leaf" {
		t.Fatalf("middle callees = %v", got)
	}
	if got := g.Callers["leaf"]; len(got) != 2 {
		t.Fatalf("leaf callers = %v", got)
	}
	if got := g.External["top"]; len(got) != 1 || got[0] != "log_event" {
		t.Fatalf("top externals = %v", got)
	}
	if got := g.External["orphan"]; len(got) != 1 || got[0] != "external_thing" {
		t.Fatalf("orphan externals = %v", got)
	}
}

func TestCallSitesCounted(t *testing.T) {
	g := build(t, sample)
	// middle calls leaf twice: 2 call sites.
	if g.CallSites["middle"] != 2 {
		t.Fatalf("middle call sites = %d", g.CallSites["middle"])
	}
	// top: middle, leaf, log_event = 3.
	if g.CallSites["top"] != 3 {
		t.Fatalf("top call sites = %d", g.CallSites["top"])
	}
}

func TestFanInOut(t *testing.T) {
	g := build(t, sample)
	if g.FanOut("top") != 2 || g.FanIn("leaf") != 2 || g.FanIn("top") != 0 {
		t.Fatalf("fan stats wrong: out(top)=%d in(leaf)=%d in(top)=%d",
			g.FanOut("top"), g.FanIn("leaf"), g.FanIn("top"))
	}
	if g.MaxFanOut() != 2 {
		t.Fatalf("max fan-out = %d", g.MaxFanOut())
	}
}

func TestDepth(t *testing.T) {
	g := build(t, sample)
	// top -> middle -> leaf = 3 nodes.
	if got := g.Depth(); got != 3 {
		t.Fatalf("depth = %d, want 3", got)
	}
	flat := build(t, "int a(void) { return 1; }\nint b(void) { return 2; }")
	if got := flat.Depth(); got != 1 {
		t.Fatalf("flat depth = %d", got)
	}
}

func TestRecursiveDepthTerminates(t *testing.T) {
	g := build(t, "int f(int n) { if (n) { return f(n - 1); } return 0; }")
	if d := g.Depth(); d != 1 {
		t.Fatalf("self-recursive depth = %d, want 1", d)
	}
}

func TestRoots(t *testing.T) {
	// top and orphan are uncalled.
	if roots := build(t, sample).Roots(); len(roots) != 2 || roots[0] != "top" || roots[1] != "orphan" {
		t.Fatalf("roots = %v", roots)
	}
	// A function that only calls others is a root even when nothing
	// reaches it from main.
	g := build(t, `
int main(void) { return helper(); }
int helper(void) { return 1; }
int unused(void) { return unused_inner(); }
int unused_inner(void) { return 2; }
`)
	if roots := g.Roots(); len(roots) != 2 || roots[0] != "main" || roots[1] != "unused" {
		t.Fatalf("roots = %v", roots)
	}
}

func TestFunctionsOrder(t *testing.T) {
	g := build(t, sample)
	fns := g.Functions()
	want := []string{"leaf", "middle", "top", "orphan"}
	if len(fns) != len(want) {
		t.Fatalf("functions = %v", fns)
	}
	for i := range want {
		if fns[i] != want[i] {
			t.Fatalf("order = %v, want %v", fns, want)
		}
	}
}

func TestSCCsAcyclic(t *testing.T) {
	g := build(t, sample)
	comps := g.SCCs()
	// Every component is a singleton, and the concatenation is a
	// permutation of Functions() in bottom-up order.
	seen := map[string]int{}
	for i, c := range comps {
		if len(c) != 1 {
			t.Fatalf("acyclic graph produced multi-node component %v", c)
		}
		seen[c[0]] = i
	}
	if len(seen) != len(g.Functions()) {
		t.Fatalf("SCCs cover %d functions, want %d", len(seen), len(g.Functions()))
	}
	// Callee-before-caller: leaf < middle < top.
	if !(seen["leaf"] < seen["middle"] && seen["middle"] < seen["top"]) {
		t.Fatalf("bottom-up order violated: %v", comps)
	}
}

func TestSCCsCycle(t *testing.T) {
	g := build(t, `
int sink_helper(int x) { return x; }
int ping(int n) { return pong(n - 1); }
int pong(int n) { return ping(n) + sink_helper(n); }
int main(void) { return ping(3); }
`)
	comps := g.SCCs()
	var cycle []string
	pos := map[string]int{}
	for i, c := range comps {
		for _, fn := range c {
			pos[fn] = i
		}
		if len(c) > 1 {
			if cycle != nil {
				t.Fatalf("multiple cycles found: %v", comps)
			}
			cycle = c
		}
	}
	if len(cycle) != 2 || cycle[0] != "ping" || cycle[1] != "pong" {
		t.Fatalf("cycle = %v, want [ping pong] in program order", cycle)
	}
	// sink_helper is called from the cycle, so it comes earlier; main calls
	// into the cycle, so it comes later.
	if !(pos["sink_helper"] < pos["ping"] && pos["ping"] < pos["main"]) {
		t.Fatalf("condensation order violated: %v", comps)
	}
}

func TestSCCsDeterministic(t *testing.T) {
	first := build(t, sample).SCCs()
	for i := 0; i < 20; i++ {
		again := build(t, sample).SCCs()
		if len(again) != len(first) {
			t.Fatalf("component count varies")
		}
		for j := range first {
			if len(first[j]) != len(again[j]) || first[j][0] != again[j][0] {
				t.Fatalf("component order varies: %v vs %v", first, again)
			}
		}
	}
}
