package findings

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cwe"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/metrics"
)

// vulnSrc has a cross-function source->sink flow (recv in main, strcpy in
// the callee), a tainted spawn, and a non-literal printf.
const vulnSrc = `
int copy_into(int dst, int s) {
	strcpy(dst, s);
	return 0;
}
int main(void) {
	int buf = 0;
	int pkt = recv(0);
	copy_into(buf, pkt);
	system(pkt);
	return 0;
}`

func tree(name, src string) *metrics.Tree {
	return metrics.NewTree(name, metrics.File{Path: name + ".c", Content: src})
}

// analyze parses f and runs AnalyzeFile on the parse at f's language,
// naming f's path in every finding as a collector does.
func analyze(f metrics.File) FileAnalysis {
	ast, prog, _ := ir.Parse(f.Content)
	fa := AnalyzeFile(f.Language, f.Content, ast, prog)
	for i := range fa.Findings {
		fa.Findings[i].File = f.Path
	}
	return fa
}

// collect analyzes every file of the tree and merges the per-file lists.
func collect(t *metrics.Tree) *Report {
	perFile := make([][]Finding, len(t.Files))
	for i, f := range t.Files {
		perFile[i] = analyze(f).Findings
	}
	return Merge(perFile)
}

func TestCollectCrossFunctionCWE121(t *testing.T) {
	rep := collect(tree("vuln", vulnSrc))
	if rep.CountCWE(121) == 0 {
		t.Fatalf("cross-function unchecked copy not tagged CWE-121:\n%s", rep)
	}
	if rep.CountCWE(78) == 0 {
		t.Fatalf("tainted spawn not tagged CWE-78:\n%s", rep)
	}
	// CWE-121 is-a CWE-119, so the parent count includes it.
	if rep.CountCWE(119) < rep.CountCWE(121) {
		t.Fatalf("IsA rollup broken: 119=%d < 121=%d", rep.CountCWE(119), rep.CountCWE(121))
	}
	// The cross-function finding carries the call-chain message.
	found := false
	for _, f := range rep.Findings {
		if f.Rule == "taint-unchecked-copy" && strings.Contains(f.Message, "via 1 call") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no depth-annotated finding:\n%s", rep)
	}
}

func TestAnalyzeFileAggregates(t *testing.T) {
	fa := analyze(metrics.File{Path: "vuln.c", Language: lang.C, Content: vulnSrc})
	if fa.InterTaintSinks < 2 {
		t.Fatalf("InterTaintSinks = %d, want >= 2 (strcpy + system)", fa.InterTaintSinks)
	}
	if fa.TaintMaxChain != 2 {
		t.Fatalf("TaintMaxChain = %d, want 2 (main -> copy_into)", fa.TaintMaxChain)
	}
}

// TestAnalyzeFileRunsAtItsLanguage: AnalyzeFile reads its language and
// bytes and nothing else. The taint engine and the abstract interpreter run
// at MiniC and C only, so the same bytes of unknown language get lint
// findings alone, and no finding names a path.
func TestAnalyzeFileRunsAtItsLanguage(t *testing.T) {
	ast, prog, _ := ir.Parse(vulnSrc)
	for _, tc := range []struct {
		l    lang.Language
		deep bool
	}{{lang.C, true}, {lang.MiniC, true}, {lang.Unknown, false}, {lang.Python, false}} {
		fa := AnalyzeFile(tc.l, vulnSrc, ast, prog)
		if got := fa.InterTaintSinks > 0; got != tc.deep {
			t.Errorf("%s: InterTaintSinks = %d, want taint findings: %v", tc.l, fa.InterTaintSinks, tc.deep)
		}
		for _, fd := range fa.Findings {
			if fd.File != "" {
				t.Errorf("%s: finding names %q; AnalyzeFile leaves File to its caller", tc.l, fd.File)
			}
			if !tc.deep && !strings.HasPrefix(fd.Rule, "lint/") {
				t.Errorf("%s: %s finding at a language the deep producers skip", tc.l, fd.Rule)
			}
		}
	}
}

func TestLintFindingsMapped(t *testing.T) {
	// gets() is an unsafe call (CWE-676) and printf(var) a format string
	// issue (CWE-134) even before any taint reasoning.
	rep := collect(tree("lint", `
int main(void) {
	int buf = 0;
	gets(buf);
	printf(buf);
	return 0;
}`))
	if rep.CountCWE(676) == 0 {
		t.Fatalf("unsafe call not tagged CWE-676:\n%s", rep)
	}
	if rep.CountCWE(134) == 0 {
		t.Fatalf("format string not tagged CWE-134:\n%s", rep)
	}
}

func TestAbsintFindingsMapped(t *testing.T) {
	rep := collect(tree("abs", `
int main(int n) {
	int arr[8];
	int x = arr[n - 300];
	int y = 10 / n;
	return x + y;
}`))
	if rep.CountCWE(119) == 0 {
		t.Fatalf("possible negative index not tagged CWE-119:\n%s", rep)
	}
	if rep.CountCWE(369) == 0 {
		t.Fatalf("possible div-by-zero not tagged CWE-369:\n%s", rep)
	}
}

func TestUnmappedRulesKept(t *testing.T) {
	rep := collect(tree("goto", `
int main(void) {
	goto done;
done:
	return 0;
}`))
	// goto-use has no CWE mapping but must stay in the stream.
	found := false
	for _, f := range rep.Findings {
		if f.Rule == "lint/"+string(lint.RuleGotoUse) {
			found = true
			if f.CWE != 0 {
				t.Fatalf("goto-use mapped to CWE-%d, want unmapped", f.CWE)
			}
		}
	}
	if !found {
		t.Fatalf("goto-use finding missing:\n%s", rep)
	}
}

func TestEveryLintRuleHasMapping(t *testing.T) {
	rules := []lint.Rule{
		lint.RuleUnsafeCall, lint.RuleFormatString, lint.RuleAssignInCondition,
		lint.RuleUncheckedAlloc, lint.RuleEmptyCatch, lint.RuleGotoUse,
		lint.RuleDeadStore, lint.RuleDivByZeroRisk, lint.RuleInfiniteLoop,
		lint.RuleMissingReturn, lint.RuleDeepExpression, lint.RuleLongParameterList,
	}
	for _, r := range rules {
		if _, ok := LintRules[r]; !ok {
			t.Errorf("lint rule %q has no findings mapping", r)
		}
	}
}

// Every taint sink has a weakness class, and every mapped name is a sink
// a taint finding can name.
func TestEveryTaintSinkHasMapping(t *testing.T) {
	var mapped []string
	for sink := range SinkRules {
		mapped = append(mapped, sink)
	}
	sort.Strings(mapped)
	if sinks := dataflow.SinkNames(); !reflect.DeepEqual(mapped, sinks) {
		t.Fatalf("SinkRules maps %v, the taint sink table holds %v", mapped, sinks)
	}
}

func TestMappedCWEsExistInTaxonomy(t *testing.T) {
	for sink, r := range SinkRules {
		if _, ok := cwe.Lookup(r.id); !ok {
			t.Errorf("sink %s maps to unknown CWE-%d", sink, r.id)
		}
	}
	for rule, m := range LintRules {
		if m.ID != 0 {
			if _, ok := cwe.Lookup(m.ID); !ok {
				t.Errorf("lint rule %s maps to unknown CWE-%d", rule, m.ID)
			}
		}
	}
	for kind, m := range AbsintRules {
		if _, ok := cwe.Lookup(m.ID); !ok {
			t.Errorf("absint kind %s maps to unknown CWE-%d", kind, m.ID)
		}
	}
}

func TestMinSeverity(t *testing.T) {
	rep := collect(tree("vuln", vulnSrc))
	high := rep.MinSeverity(SevHigh)
	if high.Total() == 0 || high.Total() >= rep.Total() {
		t.Fatalf("MinSeverity(high): %d of %d", high.Total(), rep.Total())
	}
	for _, f := range high.Findings {
		if f.Severity < SevHigh {
			t.Fatalf("low-severity finding survived the filter: %+v", f)
		}
	}
}

func TestCollectDeterministic(t *testing.T) {
	first := collect(tree("vuln", vulnSrc))
	for i := 0; i < 10; i++ {
		again := collect(tree("vuln", vulnSrc))
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("findings differ across runs")
		}
	}
	if first.String() != collect(tree("vuln", vulnSrc)).String() {
		t.Fatalf("rendered report differs across runs")
	}
}

func TestNonParsingFileTokenRulesOnly(t *testing.T) {
	// A file that does not parse as MiniC still yields token-level lint
	// findings, and no deep findings.
	fa := analyze(metrics.File{Path: "broken.c", Language: lang.C, Content: "int main( { gets(x); \n"})
	if fa.InterTaintSinks != 0 || fa.TaintMaxChain != 0 {
		t.Fatalf("deep aggregates on unparseable file: %+v", fa)
	}
	found := false
	for _, f := range fa.Findings {
		if f.Rule == "lint/"+string(lint.RuleUnsafeCall) {
			found = true
		}
	}
	if !found {
		t.Fatalf("token lint findings missing on unparseable file: %+v", fa.Findings)
	}
}

// TestSeverityJSON: a level encodes exactly as json.Marshal(s.String())
// did before Severity became a text marshaler, alone and inside a
// Finding, and decodes from its name and from its ordinal. Names in other
// spellings and unknown names decode as json.Unmarshal then ParseSeverity
// read them.
func TestSeverityJSON(t *testing.T) {
	for _, s := range []Severity{SevInfo, SevLow, SevMedium, SevHigh, SevCritical, 7, -1} {
		want, err := json.Marshal(s.String())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(s)
		if err != nil || string(got) != string(want) {
			t.Errorf("json.Marshal(%d) = %s, %v; want %s", int(s), got, err, want)
		}
		f, err := json.Marshal(Finding{Severity: s})
		if err != nil || !strings.Contains(string(f), `"Severity":`+string(want)) {
			t.Errorf("Finding with severity %d encodes as %s, %v", int(s), f, err)
		}
		var named, ordinal Severity
		if err := json.Unmarshal(got, &named); err != nil || named.String() != s.String() {
			t.Errorf("%s decodes as %v, %v", got, named, err)
		}
		if err := json.Unmarshal([]byte(strconv.Itoa(int(s))), &ordinal); err != nil || ordinal != s {
			t.Errorf("ordinal %d decodes as %d, %v", int(s), int(ordinal), err)
		}
	}
	for _, data := range []string{`"HIGH"`, `"h\u0069gh"`, `"bogus"`, `"b\u00e9"`, `"\u0000"`, `"cafÃ©"`, `null`, `2`, `true`} {
		var got Severity
		err := json.Unmarshal([]byte(data), &got)
		var name string
		want, wantErr := Severity(0), json.Unmarshal([]byte(data), &name)
		if wantErr == nil {
			want, wantErr = ParseSeverity(name)
		} else if n, err := strconv.Atoi(data); err == nil {
			want, wantErr = Severity(n), nil
		}
		if got != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s decodes as %d, %v; want %d, %v", data, int(got), err, int(want), wantErr)
		}
	}
}
