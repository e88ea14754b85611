package dataflow

import (
	"reflect"
	"testing"

	"repro/internal/ir"
)

func interproc(t *testing.T, src string) *InterResult {
	t.Helper()
	return AnalyzeProgramTaint(ir.MustLowerSource(src))
}

// The canonical flow the intraprocedural analysis misses: a source wrapped
// in a helper. AnalyzeTaint sees fetch() as an unknown call with clean
// arguments, so its result stays clean and the strcpy is never flagged.
const wrappedSourceSrc = `
int fetch(void) {
	int p = recv(0);
	return p;
}
int handle(void) {
	int buf = 0;
	int m = fetch();
	strcpy(buf, m);
	return 0;
}`

func TestInterprocWrappedSourceFound(t *testing.T) {
	// Precondition: the intraprocedural engine misses this program entirely
	// (neither function has a parameter to seed).
	if got := CountTaintedSinks(ir.MustLowerSource(wrappedSourceSrc)); got != 0 {
		t.Fatalf("CountTaintedSinks = %d, want 0", got)
	}

	res := interproc(t, wrappedSourceSrc)
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v, want exactly 1", res.Findings)
	}
	f := res.Findings[0]
	if f.Func != "handle" || f.Sink != "strcpy" || f.Depth != 0 {
		t.Fatalf("finding = %+v", f)
	}
	if res.MaxChain != 1 {
		t.Fatalf("MaxChain = %d, want 1", res.MaxChain)
	}
	// The summary view: fetch's return is always tainted.
	if s := res.Summaries["fetch"]; !s.ReturnAlways {
		t.Fatalf("fetch summary = %+v, want ReturnAlways", s)
	}
}

// A network source in main reaching a strcpy three calls deep: the flow the
// issue names. No function other than main ever sees a source, and the sink
// function only sees parameters.
const deepChainSrc = `
int copy_into(int dst, int s) {
	strcpy(dst, s);
	return 0;
}
int relay(int dst, int v) {
	copy_into(dst, v);
	return 0;
}
int route(int dst, int v) {
	relay(dst, v);
	return 0;
}
int main(void) {
	int buf = 0;
	int pkt = recv(0);
	route(buf, pkt);
	return 0;
}`

func TestInterprocDeepChain(t *testing.T) {
	res := interproc(t, deepChainSrc)
	var mainFindings []InterFinding
	for _, f := range res.Findings {
		if f.Func == "main" {
			mainFindings = append(mainFindings, f)
		}
	}
	if len(mainFindings) != 1 {
		t.Fatalf("main findings = %+v, want exactly 1", mainFindings)
	}
	f := mainFindings[0]
	if f.Sink != "strcpy" || f.Depth != 3 {
		t.Fatalf("main finding = %+v, want strcpy at depth 3", f)
	}
	if res.MaxChain != 4 {
		t.Fatalf("MaxChain = %d, want 4 (main -> route -> relay -> copy_into)", res.MaxChain)
	}
}

func TestInterprocReturnChain(t *testing.T) {
	// Taint through two levels of return values.
	res := interproc(t, `
int raw(void) { int x = read_input(); return x; }
int cooked(void) { int y = raw(); return y + 1; }
int main(void) {
	int v = cooked();
	system(v);
	return 0;
}`)
	found := false
	for _, f := range res.Findings {
		if f.Func == "main" && f.Sink == "system" {
			found = true
		}
	}
	if !found {
		t.Fatalf("return-chain flow missed: %+v", res.Findings)
	}
	if s := res.Summaries["cooked"]; !s.ReturnAlways {
		t.Fatalf("cooked summary = %+v, want ReturnAlways", s)
	}
}

func TestInterprocSanitizerBreaksChain(t *testing.T) {
	res := interproc(t, `
int scrub(int v) { int c = sanitize(v); return c; }
int main(void) {
	int d = recv(0);
	int clean = scrub(d);
	system(clean);
	return 0;
}`)
	for _, f := range res.Findings {
		if f.Sink == "system" {
			t.Fatalf("sanitized chain still flagged: %+v", res.Findings)
		}
	}
}

func TestInterprocRecursion(t *testing.T) {
	// Direct recursion: the param->sink flow must converge and be reported
	// once from the root that feeds it tainted data.
	res := interproc(t, `
int drain(int v, int n) {
	if (n > 0) {
		drain(v, n - 1);
		return 0;
	}
	system(v);
	return 0;
}
int main(void) {
	int d = getenv(0);
	drain(d, 3);
	return 0;
}`)
	found := false
	for _, f := range res.Findings {
		if f.Func == "main" && f.Sink == "system" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recursive flow missed: %+v", res.Findings)
	}
}

func TestInterprocMutualRecursionSCC(t *testing.T) {
	// Mutual recursion (a 2-cycle SCC) with a source inside the cycle.
	res := interproc(t, `
int ping(int n) {
	int d = read_input();
	if (n > 0) {
		pong(d, n - 1);
		return 0;
	}
	return 0;
}
int pong(int v, int n) {
	if (n > 0) {
		ping(n - 1);
		return 0;
	}
	strcpy(v, 0);
	return 0;
}`)
	found := false
	for _, f := range res.Findings {
		if f.Func == "ping" && f.Sink == "strcpy" {
			found = true
		}
	}
	if !found {
		t.Fatalf("SCC flow missed: %+v", res.Findings)
	}
}

// A root's parameters are attacker-controlled.
func TestInterprocRootParamTaint(t *testing.T) {
	res := interproc(t, `
int main(int argc) {
	system(argc);
	return 0;
}`)
	if len(res.Findings) != 1 {
		t.Fatalf("root param flow missed: %+v", res.Findings)
	}
}

func TestInterprocInteriorParamsNotRoots(t *testing.T) {
	// helper's parameter reaches a sink, but helper is only ever called with
	// clean data and is not a root: no finding anywhere.
	res := interproc(t, `
int helper(int v) {
	system(v);
	return 0;
}
int main(void) {
	helper(42);
	return 0;
}`)
	if len(res.Findings) != 0 {
		t.Fatalf("clean interior call flagged: %+v", res.Findings)
	}
}

func TestInterprocDeterministic(t *testing.T) {
	a := interproc(t, deepChainSrc)
	for i := 0; i < 10; i++ {
		b := interproc(t, deepChainSrc)
		if !reflect.DeepEqual(a.Findings, b.Findings) {
			t.Fatalf("findings differ across runs:\n%+v\nvs\n%+v", a.Findings, b.Findings)
		}
		if !reflect.DeepEqual(a.Summaries, b.Summaries) {
			t.Fatalf("summaries differ across runs")
		}
	}
}

// The finding count and MaxChain are the interproc_tainted_sinks and
// taint_path_depth_max features.
func TestCountInterprocSinks(t *testing.T) {
	res := interproc(t, wrappedSourceSrc)
	if len(res.Findings) != 1 || res.MaxChain != 1 {
		t.Fatalf("wrapped source: %d findings, MaxChain %d, want (1, 1)", len(res.Findings), res.MaxChain)
	}
	res = interproc(t, deepChainSrc)
	if len(res.Findings) < 1 || res.MaxChain != 4 {
		t.Fatalf("deep chain: %d findings, MaxChain %d, want (>=1, 4)", len(res.Findings), res.MaxChain)
	}
}

func TestInterprocTempDoesNotAliasLocal(t *testing.T) {
	res := interproc(t, tempAliasSrc)
	if len(res.Findings) != 1 || res.Findings[0].Sink != "system" {
		t.Fatalf("findings = %+v, want the one system sink", res.Findings)
	}
}
