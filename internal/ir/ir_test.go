package ir

import (
	"strings"
	"testing"
)

func lowerOne(t *testing.T, src string) *Func {
	t.Helper()
	p := MustLowerSource(src)
	if len(p.Funcs) == 0 {
		t.Fatal("no functions lowered")
	}
	return p.Funcs[0]
}

func TestLowerStraightLine(t *testing.T) {
	f := lowerOne(t, "int f(int a) { int b = a + 1; return b; }")
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d:\n%s", len(f.Blocks), f)
	}
	entry := f.Entry()
	if len(entry.Instrs) != 2 { // $0 = a + 1; b = $0
		t.Fatalf("instrs = %d:\n%s", len(entry.Instrs), f)
	}
	if _, ok := entry.Term.(*Ret); !ok {
		t.Fatalf("terminator = %T", entry.Term)
	}
}

func TestLowerImplicitReturn(t *testing.T) {
	f := lowerOne(t, "int f(void) { int x = 1; }")
	if _, ok := f.Entry().Term.(*Ret); !ok {
		t.Fatalf("missing implicit return:\n%s", f)
	}
}

func TestLowerIfElse(t *testing.T) {
	f := lowerOne(t, `
int f(int x) {
	int y = 0;
	if (x > 0) { y = 1; } else { y = 2; }
	return y;
}`)
	// entry, then, join, else = 4 blocks
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d:\n%s", len(f.Blocks), f)
	}
	br, ok := f.Entry().Term.(*Branch)
	if !ok {
		t.Fatalf("entry terminator = %T", f.Entry().Term)
	}
	if br.True == br.False {
		t.Fatal("if/else share a target")
	}
	// Both then and else must jump to the join block.
	thenT := br.True.Term.(*Jump).Target
	elseT := br.False.Term.(*Jump).Target
	if thenT != elseT {
		t.Fatalf("then/else do not rejoin:\n%s", f)
	}
}

func TestLowerIfWithoutElse(t *testing.T) {
	f := lowerOne(t, "int f(int x) { if (x) { x = 1; } return x; }")
	br := f.Entry().Term.(*Branch)
	// False edge goes straight to the join block.
	join := br.False
	if br.True.Term.(*Jump).Target != join {
		t.Fatalf("then does not rejoin:\n%s", f)
	}
}

func TestLowerWhileLoop(t *testing.T) {
	f := lowerOne(t, `
int f(int n) {
	int s = 0;
	while (n > 0) {
		s = s + n;
		n = n - 1;
	}
	return s;
}`)
	// entry, loopcond, loopbody, loopexit
	if len(f.Blocks) != 4 {
		t.Fatalf("blocks = %d:\n%s", len(f.Blocks), f)
	}
	var condBlock *Block
	for _, b := range f.Blocks {
		if strings.HasPrefix(b.Name, "loopcond") {
			condBlock = b
		}
	}
	if condBlock == nil {
		t.Fatalf("no cond block:\n%s", f)
	}
	// The cond block has two preds: entry and body (back edge).
	if len(condBlock.Preds) != 2 {
		t.Fatalf("cond preds = %d:\n%s", len(condBlock.Preds), f)
	}
}

func TestLowerForLoop(t *testing.T) {
	f := lowerOne(t, `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) { s += i; }
	return s;
}`)
	names := map[string]bool{}
	for _, b := range f.Blocks {
		names[strings.TrimRight(b.Name, "0123456789")] = true
	}
	for _, want := range []string{"entry", "forcond", "forbody", "forpost", "forexit"} {
		if !names[want] {
			t.Fatalf("missing %s block:\n%s", want, f)
		}
	}
}

func TestLowerBreakContinue(t *testing.T) {
	f := lowerOne(t, `
int f(int n) {
	int s = 0;
	while (1) {
		if (s > n) { break; }
		s++;
		if (s % 2) { continue; }
		s++;
	}
	return s;
}`)
	// Verify that some block jumps to loopexit (the break) and some block
	// jumps to loopcond from inside the body (the continue).
	var exitJumps, condJumps int
	for _, b := range f.Blocks {
		if j, ok := b.Term.(*Jump); ok {
			if strings.HasPrefix(j.Target.Name, "loopexit") {
				exitJumps++
			}
			if strings.HasPrefix(j.Target.Name, "loopcond") {
				condJumps++
			}
		}
	}
	if exitJumps == 0 {
		t.Fatalf("no break edge:\n%s", f)
	}
	if condJumps < 2 { // back edge + continue
		t.Fatalf("continue edge missing (cond jumps = %d):\n%s", condJumps, f)
	}
}

func TestLowerDeadCodeRemoved(t *testing.T) {
	f := lowerOne(t, "int f(void) { return 1; int x = 2; x = 3; }")
	for _, b := range f.Blocks {
		if strings.HasPrefix(b.Name, "dead") {
			t.Fatalf("dead block survived:\n%s", f)
		}
	}
	if len(f.Blocks) != 1 {
		t.Fatalf("blocks = %d:\n%s", len(f.Blocks), f)
	}
}

func TestLowerShadowRenaming(t *testing.T) {
	f := lowerOne(t, `
int f(int x) {
	int y = 1;
	if (x) {
		int y = 2;
		x = y;
	}
	return y;
}`)
	vars := f.Vars()
	// Two distinct y variables must exist.
	count := 0
	for _, v := range vars {
		if v == "y" || strings.HasPrefix(v, "y.") {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("shadowed variables = %d (%v):\n%s", count, vars, f)
	}
}

func TestLowerArrays(t *testing.T) {
	f := lowerOne(t, `
int f(int i) {
	int a[8];
	a[i] = 42;
	return a[i + 1];
}`)
	var stores, loads int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.(type) {
			case *ArrayStore:
				stores++
			case *ArrayLoad:
				loads++
			}
		}
	}
	if stores != 1 || loads != 1 {
		t.Fatalf("stores=%d loads=%d:\n%s", stores, loads, f)
	}
}

func TestLowerCalls(t *testing.T) {
	f := lowerOne(t, `
int f(int x) {
	int r = g(x, 2);
	log_it(r);
	return r;
}`)
	var valCalls, voidCalls int
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if c, ok := in.(*Call); ok {
				if c.Dst == nil {
					voidCalls++
				} else {
					valCalls++
				}
			}
		}
	}
	if valCalls != 1 || voidCalls != 1 {
		t.Fatalf("calls = %d/%d:\n%s", valCalls, voidCalls, f)
	}
}

func TestLowerGlobals(t *testing.T) {
	p := MustLowerSource("int g = 5;\nint table[4];\nint main(void) { return g; }")
	if len(p.Globals) != 2 {
		t.Fatalf("globals = %v", p.Globals)
	}
	f, ok := p.FuncByName("main")
	if !ok {
		t.Fatal("main missing")
	}
	found := false
	for _, v := range f.Vars() {
		if v == "g" {
			found = true
		}
	}
	if !found {
		t.Fatalf("global not referenced: %v", f.Vars())
	}
}

func TestTempsSingleAssignment(t *testing.T) {
	f := lowerOne(t, `
int f(int a, int b) {
	int c = a * b + a / b - a % b;
	if (a < b && b < 10) { c = c + 1; }
	return c;
}`)
	defs := map[int]int{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Defs(); d != nil {
				if tmp, ok := d.(Temp); ok {
					defs[tmp.ID]++
				}
			}
		}
	}
	for id, n := range defs {
		if n != 1 {
			t.Fatalf("temp %v defined %d times:\n%s", Temp{ID: id}, n, f)
		}
	}
}

func TestPredsConsistent(t *testing.T) {
	f := lowerOne(t, `
int f(int n) {
	int s = 0;
	for (int i = 0; i < n; i++) {
		if (i % 2) { s += i; } else { s -= i; }
	}
	return s;
}`)
	// Every successor edge must have a matching predecessor entry.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %s->%s missing pred:\n%s", b.Name, s.Name, f)
			}
		}
	}
	// And block IDs are dense.
	for i, b := range f.Blocks {
		if b.ID != i {
			t.Fatalf("block %s has ID %d at index %d", b.Name, b.ID, i)
		}
	}
}

func TestFuncString(t *testing.T) {
	f := lowerOne(t, "int f(int a) { return a; }")
	s := f.String()
	if !strings.Contains(s, "func f(a):") || !strings.Contains(s, "ret a") {
		t.Fatalf("String() = %s", s)
	}
}

func TestValueStrings(t *testing.T) {
	if (Const{V: 7}).String() != "7" {
		t.Fatal("const string")
	}
	if (Var{Name: "x"}).String() != "x" {
		t.Fatal("var string")
	}
	if (Temp{ID: 3}).String() != "$3" {
		t.Fatal("temp string")
	}
}

func TestFuncByNameMissing(t *testing.T) {
	p := MustLowerSource("int f(void) { return 0; }")
	if _, ok := p.FuncByName("nope"); ok {
		t.Fatal("found nonexistent function")
	}
}

// The input sources are the six reads symexec, absint and interp draw
// inputs from; the taint engine's extra sources are not among them, since
// adding one would change feasible_paths and the dynamic features.
func TestIsInputSource(t *testing.T) {
	for _, name := range []string{"read_input", "recv", "read", "getenv", "fgets", "scanf"} {
		if !IsInputSource(name) {
			t.Errorf("IsInputSource(%q) = false", name)
		}
	}
	for _, name := range []string{"gets", "fread", "recvfrom", "parse_packet", "system", "f", ""} {
		if IsInputSource(name) {
			t.Errorf("IsInputSource(%q) = true", name)
		}
	}
}

// TestParseResults pins Parse's contract on source: a file that does not
// parse returns neither result and the parser's error, and one that
// parses and lowers returns both and no error.
func TestParseResults(t *testing.T) {
	ast, prog, err := Parse("#include <stdio.h>\nint f(void) { return 0; }")
	if ast != nil || prog != nil || err == nil || !strings.HasPrefix(err.Error(), "minic:") {
		t.Fatalf("unparseable source: ast=%v prog=%v err=%v", ast, prog, err)
	}
	ast, prog, err = Parse("int f(int a) { return a; }")
	if ast == nil || prog == nil || err != nil || len(prog.Funcs) != 1 || len(ast.Funcs) != 1 {
		t.Fatalf("valid source: ast=%v prog=%v err=%v", ast, prog, err)
	}
}
