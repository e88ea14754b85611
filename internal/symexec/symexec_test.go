package symexec

import (
	"fmt"
	"testing"

	"repro/internal/ir"
)

func explore(t *testing.T, src string) *Result {
	t.Helper()
	f := ir.MustLowerSource(src).Funcs[0]
	return Explore(f, DefaultLoopBound)
}

func TestExploreStraightLine(t *testing.T) {
	res := explore(t, "int f(void) { return 42; }")
	if res.FeasiblePaths != 1 {
		t.Fatalf("paths = %d", res.FeasiblePaths)
	}
	if len(res.Paths) != 1 || res.Paths[0].Return != Single(42) {
		t.Fatalf("paths = %+v", res.Paths)
	}
	// No inputs: one model (the empty assignment).
	if res.ModelCount != 1 {
		t.Fatalf("models = %v", res.ModelCount)
	}
}

func TestExploreBranchSplitsModels(t *testing.T) {
	res := explore(t, `
int f(int x) {
	if (x < 100) { return 0; }
	return 1;
}`)
	if res.FeasiblePaths != 2 {
		t.Fatalf("paths = %d", res.FeasiblePaths)
	}
	// Input space [0,255]: 100 models go left, 156 go right.
	if res.InputSpace != 256 {
		t.Fatalf("input space = %v", res.InputSpace)
	}
	if res.ModelCount != 256 {
		t.Fatalf("models = %v (paths %+v)", res.ModelCount, res.Paths)
	}
	// Paths sorted by model count: 156 then 100.
	if res.Paths[0].Models != 156 || res.Paths[1].Models != 100 {
		t.Fatalf("per-path models = %+v", res.Paths)
	}
}

func TestExplorePrunesInfeasible(t *testing.T) {
	res := explore(t, `
int f(int x) {
	if (x < 10) {
		if (x > 20) { return 99; }
		return 1;
	}
	return 0;
}`)
	// The x<10 && x>20 path is infeasible.
	if res.FeasiblePaths != 2 {
		t.Fatalf("feasible = %d", res.FeasiblePaths)
	}
	if res.InfeasiblePaths == 0 {
		t.Fatal("no infeasible path recorded")
	}
	for _, p := range res.Paths {
		if p.Return == Single(99) {
			t.Fatal("infeasible return reached")
		}
	}
}

func TestExploreConstantFolding(t *testing.T) {
	// Condition is definitely true: only one path.
	res := explore(t, `
int f(void) {
	int x = 5;
	if (x > 0) { return 1; }
	return 0;
}`)
	if res.FeasiblePaths != 1 {
		t.Fatalf("paths = %d", res.FeasiblePaths)
	}
	if res.Paths[0].Return != Single(1) {
		t.Fatalf("return = %v", res.Paths[0].Return)
	}
}

func TestExploreLoopBounded(t *testing.T) {
	res := explore(t, `
int f(int n) {
	int s = 0;
	while (n > 0) { s = s + 1; n = n - 1; }
	return s;
}`)
	// The loop can exit immediately or iterate; with LoopBound 3 some paths
	// truncate, but at least one completes.
	if res.FeasiblePaths == 0 {
		t.Fatal("no feasible path through loop")
	}
	if res.TruncatedPaths == 0 {
		t.Fatal("expected truncation with unbounded loop iterations")
	}
}

func TestExploreSourceCallsAreInputs(t *testing.T) {
	res := explore(t, `
int f(void) {
	int data = read_input();
	if (data == 0) { return 1; }
	return 0;
}`)
	if res.FeasiblePaths != 2 {
		t.Fatalf("paths = %d", res.FeasiblePaths)
	}
	// The ==0 path has exactly one model.
	found := false
	for _, p := range res.Paths {
		if p.Models == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("singleton path missing: %+v", res.Paths)
	}
}

func TestExploreNestedConditionModels(t *testing.T) {
	res := explore(t, `
int f(int x) {
	if (x >= 10) {
		if (x <= 20) { return 1; }
	}
	return 0;
}`)
	// Path returning 1 has models for x in [10,20]: 11 values.
	var inner *PathRecord
	for i := range res.Paths {
		if res.Paths[i].Return == Single(1) {
			inner = &res.Paths[i]
		}
	}
	if inner == nil {
		t.Fatalf("inner path missing: %+v", res.Paths)
	}
	if inner.Models != 11 {
		t.Fatalf("inner models = %v, want 11", inner.Models)
	}
}

func TestExploreLogicalAnd(t *testing.T) {
	res := explore(t, `
int f(int x) {
	if (x >= 5 && x < 8) { return 1; }
	return 0;
}`)
	var hit *PathRecord
	for i := range res.Paths {
		if res.Paths[i].Return == Single(1) {
			hit = &res.Paths[i]
		}
	}
	if hit == nil {
		t.Fatal("conjunction path missing")
	}
	if hit.Models != 3 { // x in {5,6,7}
		t.Fatalf("models = %v, want 3", hit.Models)
	}
}

func TestExploreDivByZeroRisk(t *testing.T) {
	res := explore(t, `
int f(int x) {
	return 100 / x;
}`)
	if res.DivByZeroRisks == 0 {
		t.Fatal("division by possibly-zero input not flagged")
	}
	safe := explore(t, "int f(void) { return 100 / 5; }")
	if safe.DivByZeroRisks != 0 {
		t.Fatal("safe division flagged")
	}
}

func TestExploreCoverage(t *testing.T) {
	res := explore(t, `
int f(int x) {
	if (x > 1000) { return 1; }
	return 0;
}`)
	// Input range is [0,255] so x > 1000 is infeasible; the then-block stays
	// uncovered.
	if res.BlocksCovered >= res.BlocksTotal {
		t.Fatalf("coverage = %d/%d, expected uncovered block",
			res.BlocksCovered, res.BlocksTotal)
	}
	if res.FeasiblePaths != 1 {
		t.Fatalf("paths = %d", res.FeasiblePaths)
	}
}

func TestExplorePathBudget(t *testing.T) {
	// Each branch tests a fresh input, so the 2^20 paths are all feasible
	// and exploration runs into the production budget, which must cap it.
	src := "int f(void) {\n int s = 0;\n"
	for i := 0; i < 20; i++ {
		src += fmt.Sprintf("int v%d = read_input();\nif (v%d > 127) { s = s + 1; } else { s = s - 1; }\n", i, i)
	}
	src += "return s;\n}"
	f := ir.MustLowerSource(src).Funcs[0]
	res := Explore(f, DefaultLoopBound)
	total := res.FeasiblePaths + res.TruncatedPaths + res.InfeasiblePaths
	if total < maxPaths || total > maxPaths+2 {
		t.Fatalf("explored %d paths, want the budget of %d (+2)", total, maxPaths)
	}
}

func TestExploreModelsNeverExceedInputSpace(t *testing.T) {
	// With pure partition branches, total models equal the input space.
	res := explore(t, `
int f(int x) {
	if (x < 50) { return 0; }
	if (x < 150) { return 1; }
	return 2;
}`)
	if res.ModelCount != res.InputSpace {
		t.Fatalf("models %v != input space %v", res.ModelCount, res.InputSpace)
	}
}

func TestExploreArrays(t *testing.T) {
	res := explore(t, `
int f(int i) {
	int a[4];
	a[0] = 7;
	a[1] = 9;
	int v = a[0];
	if (v > 100) { return 1; }
	return 0;
}`)
	// a's summary interval is [7,9]; v > 100 is infeasible.
	if res.FeasiblePaths != 1 {
		t.Fatalf("paths = %d (%+v)", res.FeasiblePaths, res.Paths)
	}
}

// TestExploreTempDoesNotAliasLocal: a local named t0 keeps its own
// interval while y's initializer defines the function's first temporary.
func TestExploreTempDoesNotAliasLocal(t *testing.T) {
	res := explore(t, "int f(int x){int t0=5; int y=x*2+1; return t0;}")
	if len(res.Paths) != 1 || res.Paths[0].Return != Single(5) {
		t.Fatalf("paths = %+v, want one returning [5,5]", res.Paths)
	}
}
