package absint

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/langgen"
	"repro/internal/minic"
	"repro/internal/stats"
	"repro/internal/symexec"
)

func analyze(t *testing.T, src string) (*ir.Func, *Result) {
	t.Helper()
	f := ir.MustLowerSource(src).Funcs[0]
	return f, Analyze(f)
}

func TestReturnRangeStraightLine(t *testing.T) {
	_, res := analyze(t, "int f(void) { return 41 + 1; }")
	if res.ReturnRange != symexec.Single(42) {
		t.Fatalf("return range = %v", res.ReturnRange)
	}
}

func TestReturnRangeBounded(t *testing.T) {
	// x in [0,255]; returns either x+1 (in [1,256]) or 0.
	_, res := analyze(t, `
int f(int x) {
	if (x > 10) { return x + 1; }
	return 0;
}`)
	rr := res.ReturnRange
	if !rr.Contains(0) || !rr.Contains(256) {
		t.Fatalf("return range %v should cover {0} and [1,256]", rr)
	}
	if rr.Lo < 0 || rr.Hi > 256 {
		t.Fatalf("return range %v too wide", rr)
	}
}

func TestLoopWideningTerminates(t *testing.T) {
	f, res := analyze(t, `
int f(int n) {
	int s = 0;
	int i = 0;
	while (i < n) {
		s = s + i;
		i = i + 1;
	}
	return s;
}`)
	if res.Iterations >= 10000 {
		t.Fatalf("fixpoint hit the safety valve (%d iterations)", res.Iterations)
	}
	if res.Iterations > 10*len(f.Blocks)+50 {
		t.Fatalf("fixpoint too slow: %d iterations for %d blocks", res.Iterations, len(f.Blocks))
	}
	// The accumulator grows without a static bound: after widening its
	// upper end must be the domain bound.
	if res.ReturnRange.Hi != symexec.Bound {
		t.Fatalf("widened return = %v", res.ReturnRange)
	}
	// But it never goes negative: s starts at 0 and only grows by i >= 0...
	// (the base domain loses the i >= 0 relation through the join, so the
	// lower bound may also widen; just require the range to be non-empty).
	if res.ReturnRange.Empty() {
		t.Fatal("empty return range")
	}
}

func TestUnreachableBlockDetected(t *testing.T) {
	f, res := analyze(t, `
int f(void) {
	int debug = 0;
	if (debug) { impossible(); return 1; }
	return 0;
}`)
	if len(res.Unreachable) == 0 {
		t.Fatalf("constant-false branch not proved dead:\n%s", f)
	}
	if res.ReturnRange != symexec.Single(0) {
		t.Fatalf("return range = %v, want {0}", res.ReturnRange)
	}
}

func TestDivByZeroWarning(t *testing.T) {
	_, res := analyze(t, "int f(int x) { return 10 / x; }")
	found := false
	for _, w := range res.Warnings {
		if w.Kind == "possible-div-by-zero" {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings = %+v", res.Warnings)
	}
	// A constant divisor must stay quiet.
	_, clean := analyze(t, "int f(int x) { return x / 2; }")
	if len(clean.Warnings) != 0 {
		t.Fatalf("clean division warned: %+v", clean.Warnings)
	}
}

func TestNegativeIndexWarning(t *testing.T) {
	_, res := analyze(t, `
int f(int x) {
	int a[4];
	a[x - 300] = 1;
	return a[0];
}`)
	found := false
	for _, w := range res.Warnings {
		if w.Kind == "possible-negative-index" {
			found = true
		}
	}
	if !found {
		t.Fatalf("warnings = %+v", res.Warnings)
	}
}

func TestWarningsDeduplicated(t *testing.T) {
	// The division sits in a loop: the fixpoint revisits it, but the
	// warning must appear once.
	_, res := analyze(t, `
int f(int x, int n) {
	int s = 0;
	while (n > 0) {
		s = s + 10 / x;
		n = n - 1;
	}
	return s;
}`)
	count := 0
	for _, w := range res.Warnings {
		if w.Kind == "possible-div-by-zero" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("duplicate warnings: %+v", res.Warnings)
	}
}

// Soundness (differential property): for generated programs and sampled
// inputs, every concrete return value lies inside the abstract ReturnRange.
func TestSoundAgainstInterpreter(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		spec := langgen.DefaultSpec()
		spec.Seed = seed
		spec.Files = 1
		spec.VulnDensity = 0
		tree := langgen.Generate(spec)
		ast, err := minic.Parse(tree.Files[0].Content)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.Lower(ast)
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(seed * 31)
		for _, fn := range prog.Funcs {
			res := Analyze(fn)
			for trial := 0; trial < 4; trial++ {
				inputs := make([]int64, len(fn.Params)+6)
				for i := range inputs {
					inputs[i] = ir.InputMin + int64(rng.Intn(ir.InputMax-ir.InputMin+1)) // match inputRange
				}
				// External call results must also respect the abstraction:
				// the analysis maps unknown externals to Top, so any value
				// is fine, but input sources assume the byte range, which
				// holds the interpreter's external values (0 to 18).
				tr, err := interp.Run(prog, fn.Name, inputs)
				if err != nil {
					t.Fatal(err)
				}
				if !tr.Returned {
					continue
				}
				if !res.ReturnRange.Contains(tr.ReturnValue) {
					t.Fatalf("seed %d %s: concrete return %d outside abstract %v",
						seed, fn.Name, tr.ReturnValue, res.ReturnRange)
				}
			}
		}
	}
}

func TestStateJoinSemantics(t *testing.T) {
	a := State{"x": symexec.Interval{Lo: 0, Hi: 5}, "y": symexec.Single(1)}
	b := State{"x": symexec.Interval{Lo: 3, Hi: 9}}
	j := join(a, b)
	if j["x"] != (symexec.Interval{Lo: 0, Hi: 9}) {
		t.Fatalf("join x = %v", j["x"])
	}
	if _, ok := j["y"]; ok {
		t.Fatal("one-sided variable survived the join")
	}
	if j.get("y") != symexec.Top() {
		t.Fatal("missing variable should read as Top")
	}
}

func TestWidenDirections(t *testing.T) {
	prev := State{"x": symexec.Interval{Lo: 0, Hi: 10}}
	next := State{"x": symexec.Interval{Lo: -1, Hi: 12}}
	w := widen(prev, next)
	if w["x"].Lo != -symexec.Bound || w["x"].Hi != symexec.Bound {
		t.Fatalf("widen = %v", w["x"])
	}
	stable := State{"x": symexec.Interval{Lo: 0, Hi: 10}}
	if got := widen(prev, stable); got["x"] != prev["x"] {
		t.Fatalf("stable widen = %v", got["x"])
	}
}

// TestReturnRangeTempDoesNotAliasLocal: a local named t0 keeps its own
// range while y's initializer defines the function's first temporary.
func TestReturnRangeTempDoesNotAliasLocal(t *testing.T) {
	_, res := analyze(t, "int f(int x){int t0=5; int y=x*2+1; return t0;}")
	if res.ReturnRange != symexec.Single(5) {
		t.Fatalf("return range = %v, want [5,5]", res.ReturnRange)
	}
}
