package symexec

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/langgen"
	"repro/internal/minic"
)

// Property: the symbolic executor terminates within its budgets on every
// generated program, and its accounting invariants hold.
func TestExploreGeneratedPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		spec := langgen.DefaultSpec()
		spec.Seed = seed
		spec.Files = 2
		spec.LoopProb = 0.25
		spec.BranchProb = 0.3
		tree := langgen.Generate(spec)
		for _, f := range tree.Files {
			prog, err := minic.Parse(f.Content)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			lowered, err := ir.Lower(prog)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			for _, fn := range lowered.Funcs {
				res := Explore(fn, DefaultLoopBound)
				total := res.FeasiblePaths + res.TruncatedPaths + res.InfeasiblePaths
				if total == 0 {
					t.Fatalf("seed %d %s: no paths at all", seed, fn.Name)
				}
				if res.FeasiblePaths+res.TruncatedPaths > maxPaths+2 {
					t.Fatalf("seed %d %s: budget exceeded (%d)", seed, fn.Name, total)
				}
				if res.BlocksCovered > res.BlocksTotal {
					t.Fatalf("seed %d %s: coverage overflow", seed, fn.Name)
				}
				if res.ModelCount < 0 {
					t.Fatalf("seed %d %s: negative models", seed, fn.Name)
				}
				for _, p := range res.Paths {
					if p.Models < 0 {
						t.Fatalf("seed %d %s: negative path models", seed, fn.Name)
					}
				}
			}
		}
	}
}

// Property: interpreting a function on concrete inputs must agree with the
// symbolic return interval of the path those inputs drive — spot-checked by
// verifying the concrete return value lies inside SOME feasible path's
// return interval.
func TestExploreSoundAgainstConcrete(t *testing.T) {
	src := `
int f(int x) {
	int y = 0;
	if (x < 50) { y = x + 1; } else { y = x * 2; }
	if (y > 120) { return 999; }
	return y;
}`
	fn := ir.MustLowerSource(src).Funcs[0]
	res := Explore(fn, DefaultLoopBound)
	concrete := func(x int64) int64 {
		var y int64
		if x < 50 {
			y = x + 1
		} else {
			y = x * 2
		}
		if y > 120 {
			return 999
		}
		return y
	}
	for _, x := range []int64{0, 10, 49, 50, 59, 60, 61, 100, 255} {
		want := concrete(x)
		found := false
		for _, p := range res.Paths {
			if !p.Return.Empty() && p.Return.Contains(want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("concrete f(%d)=%d not covered by any path interval: %+v",
				x, want, res.Paths)
		}
	}
}
