package dataflow

import (
	"testing"

	"repro/internal/ir"
)

func lower(t *testing.T, src string) *ir.Func {
	t.Helper()
	return ir.MustLowerSource(src).Funcs[0]
}

func TestLiveness(t *testing.T) {
	f := lower(t, `
int f(int a, int b) {
	int x = a + 1;
	int y = b + 2;
	return x;
}`)
	lv := LiveVariables(f)
	entry := f.Entry()
	// a and b are live at entry (both used); y is dead everywhere after def.
	if !lv.In[entry]["a"] || !lv.In[entry]["b"] {
		t.Fatalf("params not live at entry: %v", lv.In[entry])
	}
	if lv.Out[entry]["y"] {
		t.Fatal("y live at exit of the only block")
	}
}

func TestDeadStores(t *testing.T) {
	f := lower(t, `
int f(int a) {
	int x = 1;
	x = 2;
	int unused = a * 3;
	return x;
}`)
	dead := DeadStores(f)
	// Dead: first def of x (overwritten) and 'unused'.
	vars := map[string]bool{}
	for _, d := range dead {
		vars[d.Var] = true
	}
	if !vars["x"] {
		t.Fatalf("overwritten x not reported: %v", dead)
	}
	if !vars["unused"] {
		t.Fatalf("unused var not reported: %v", dead)
	}
}

func TestDeadStoresNoneInTightCode(t *testing.T) {
	f := lower(t, `
int f(int a) {
	int x = a + 1;
	return x;
}`)
	for _, d := range DeadStores(f) {
		if d.Var == "x" || d.Var == "a" {
			t.Fatalf("live store reported dead: %v", d)
		}
	}
}

func TestDeadStoresTerminatorUse(t *testing.T) {
	// The branch condition temp is used by the terminator only; it must not
	// be a dead store.
	f := lower(t, "int f(int a) { if (a > 1) { return 1; } return 0; }")
	for _, d := range DeadStores(f) {
		if d.Temp {
			t.Fatalf("branch condition reported dead: %v", d)
		}
	}
}

func TestDeadStoresMarksTemps(t *testing.T) {
	// MiniC source never leaves a temporary unused, so build one by hand:
	// both the temporary and the variable are dead, and only the
	// temporary's Def is marked Temp.
	f := &ir.Func{Name: "f", Params: []string{"a"}, NTemps: 1, Blocks: []*ir.Block{{
		Name: "entry0",
		Instrs: []ir.Instr{
			&ir.BinOp{Dst: ir.Temp{ID: 0}, Op: "+", L: ir.Var{Name: "a"}, R: ir.Const{V: 1}},
			&ir.Assign{Dst: ir.Var{Name: "t0"}, Src: ir.Var{Name: "a"}},
		},
		Term: &ir.Ret{Value: ir.Var{Name: "a"}},
	}}}
	dead := DeadStores(f)
	if len(dead) != 2 {
		t.Fatalf("dead stores = %v, want the temporary and t0", dead)
	}
	for _, d := range dead {
		if want := d.Index == 0; d.Temp != want {
			t.Fatalf("%v: Temp = %v, want %v", d, d.Temp, want)
		}
	}
}

func TestLivenessAcrossLoop(t *testing.T) {
	f := lower(t, `
int f(int n) {
	int acc = 0;
	while (n > 0) {
		acc = acc + n;
		n = n - 1;
	}
	return acc;
}`)
	lv := LiveVariables(f)
	// acc must be live around the back edge (used on next iteration).
	var body *ir.Block
	for _, b := range f.Blocks {
		if b.Name[:4] == "loop" && len(b.Instrs) > 0 {
			for _, in := range b.Instrs {
				if d := in.Defs(); d != nil && d.String() == "acc" {
					body = b
				}
			}
		}
	}
	if body == nil {
		t.Fatal("loop body not found")
	}
	if !lv.Out[body]["acc"] {
		t.Fatalf("acc not live at body exit: %v", lv.Out[body])
	}
}
