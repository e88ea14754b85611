package dataflow

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ir"
)

func taint(t *testing.T, src string) TaintResult {
	t.Helper()
	f := ir.MustLowerSource(src).Funcs[0]
	return AnalyzeTaint(f)
}

func TestTaintDirectFlow(t *testing.T) {
	res := taint(t, `
int f(void) {
	int data = read_input();
	system(data);
	return 0;
}`)
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v", res.Findings)
	}
	if res.Findings[0].Sink != "system" || res.Findings[0].Arg != 0 {
		t.Fatalf("finding = %+v", res.Findings[0])
	}
}

func TestTaintThroughArithmetic(t *testing.T) {
	res := taint(t, `
int f(void) {
	int data = read_input();
	int derived = data * 2 + 1;
	strcpy(derived, 0);
	return 0;
}`)
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v", res.Findings)
	}
}

func TestTaintParams(t *testing.T) {
	res := taint(t, `
int handler(int request) {
	system(request);
	return 0;
}`)
	if len(res.Findings) != 1 {
		t.Fatalf("param taint findings = %+v", res.Findings)
	}
}

func TestTaintCleanData(t *testing.T) {
	res := taint(t, `
int f(void) {
	int clean = 42;
	system(clean);
	return 0;
}`)
	if len(res.Findings) != 0 {
		t.Fatalf("clean data flagged: %+v", res.Findings)
	}
}

func TestTaintSanitizer(t *testing.T) {
	res := taint(t, `
int f(void) {
	int data = read_input();
	int clean = sanitize(data);
	system(clean);
	return 0;
}`)
	if len(res.Findings) != 0 {
		t.Fatalf("sanitized data flagged: %+v", res.Findings)
	}
}

func TestTaintThroughArray(t *testing.T) {
	res := taint(t, `
int f(void) {
	int buf[8];
	int data = read_input();
	buf[0] = data;
	int y = buf[3];
	send(y);
	return 0;
}`)
	// Whole-array granularity: buf[3] is tainted because buf[0] was.
	if len(res.Findings) != 1 {
		t.Fatalf("array taint findings = %+v", res.Findings)
	}
}

func TestTaintJoinOverBranches(t *testing.T) {
	res := taint(t, `
int f(int c) {
	int x = 0;
	if (c > 0) {
		x = read_input();
	}
	system(x);
	return 0;
}`)
	// x may be tainted on one path: the may-analysis must flag it.
	found := false
	for _, fd := range res.Findings {
		if fd.Sink == "system" {
			found = true
		}
	}
	if !found {
		t.Fatalf("path-join taint missed: %+v", res.Findings)
	}
}

func TestTaintLoopFixpoint(t *testing.T) {
	res := taint(t, `
int f(int n) {
	int acc = 0;
	int i = 0;
	while (i < n) {
		acc = acc + read_input();
		i = i + 1;
	}
	write_log(acc);
	return 0;
}`)
	found := false
	for _, fd := range res.Findings {
		if fd.Sink == "write_log" {
			found = true
		}
	}
	if !found {
		t.Fatalf("loop taint missed: %+v", res.Findings)
	}
}

func TestTaintOverwriteClears(t *testing.T) {
	res := taint(t, `
int f(void) {
	int x = read_input();
	x = 5;
	system(x);
	return 0;
}`)
	if len(res.Findings) != 0 {
		t.Fatalf("overwritten taint persisted: %+v", res.Findings)
	}
}

func TestTaintMultipleArgs(t *testing.T) {
	res := taint(t, `
int f(void) {
	int a = read_input();
	int b = 1;
	memcpy(b, a);
	return 0;
}`)
	if len(res.Findings) != 1 || res.Findings[0].Arg != 1 {
		t.Fatalf("arg index wrong: %+v", res.Findings)
	}
}

// Every tainted argument of a sink call is its own finding, and
// tainted_sinks counts each one.
func TestTaintTwoTaintedArgs(t *testing.T) {
	const src = `
int f(void) {
	int a = read_input();
	int b = recv(0);
	memcpy(a, b);
	return 0;
}`
	res := taint(t, src)
	want := []TaintFinding{
		{Func: "f", Sink: "memcpy", Line: 5, Arg: 0},
		{Func: "f", Sink: "memcpy", Line: 5, Arg: 1},
	}
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("findings = %+v, want %+v", res.Findings, want)
	}
	if got := CountTaintedSinks(ir.MustLowerSource(src)); got != 2 {
		t.Fatalf("CountTaintedSinks = %d, want 2", got)
	}
}

// manyParamsSrc declares a function with more parameters than the origin
// lattice has parameter bits; its last one reaches system.
func manyParamsSrc(n int) string {
	params := make([]string, n)
	for i := range params {
		params[i] = fmt.Sprintf("int p%d", i)
	}
	return fmt.Sprintf("int f(%s) {\n\tsystem(p%d);\n\treturn 0;\n}", strings.Join(params, ", "), n-1)
}

// Parameters are sources in the intraprocedural pass, not parameter bits,
// so a parameter past the 64th is as tainted as the first.
func TestTaintManyParams(t *testing.T) {
	res := taint(t, manyParamsSrc(66))
	want := []TaintFinding{{Func: "f", Sink: "system", Line: 2, Arg: 0}}
	if !reflect.DeepEqual(res.Findings, want) {
		t.Fatalf("findings = %+v, want %+v", res.Findings, want)
	}
}

func TestCountTaintedSinks(t *testing.T) {
	p := ir.MustLowerSource(`
int a(void) { int x = read_input(); system(x); return 0; }
int b(void) { int y = 1; system(y); return 0; }
int c(int z) { strcpy(z, 0); return 0; }
`)
	if got := CountTaintedSinks(p); got != 2 {
		t.Fatalf("CountTaintedSinks = %d, want 2", got)
	}
}

// tempAliasSrc taints a local named t1, then lowers a clean expression
// that defines the function's second temporary: the local must stay
// tainted at the sink.
const tempAliasSrc = `
int handle(void) {
	int t1 = recv(0);
	int z = 2 * 3 + 1;
	system(t1);
	return z;
}`

func TestTaintTempDoesNotAliasLocal(t *testing.T) {
	res := taint(t, tempAliasSrc)
	if len(res.Findings) != 1 || res.Findings[0].Sink != "system" {
		t.Fatalf("findings = %+v, want the one system sink", res.Findings)
	}
}
