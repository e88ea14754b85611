// Package findings is the unified, CWE-mapped security-findings layer: one
// Finding stream merging the interprocedural taint engine, the lint rule
// battery, and the abstract interpreter's fault warnings, each tagged with
// the weakness class it evidences. The per-CWE counts are what the
// per-hypothesis classifiers ("does this app contain CWE-121?") consume as
// features — the per-weakness-class signal Modena-style CWE classification
// needs, which raw warning totals cannot provide.
package findings

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/absint"
	"repro/internal/cwe"
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/minic"
)

// Severity ranks findings for triage.
type Severity int

// Severity levels, lowest first.
const (
	SevInfo Severity = iota
	SevLow
	SevMedium
	SevHigh
	SevCritical
)

// MarshalText renders the level by name, so JSON reports read "high"
// rather than an opaque ordinal.
func (s Severity) MarshalText() ([]byte, error) {
	return []byte(s.String()), nil
}

// UnmarshalJSON accepts the named form MarshalText emits (and, for
// tolerance, the raw ordinal), so JSON reports round-trip through typed
// clients. A quoted name of printable ASCII without escapes, the form
// MarshalText emits, is parsed in place; anything else goes through
// json.Unmarshal.
func (s *Severity) UnmarshalJSON(data []byte) error {
	if name, ok := plainQuoted(data); ok {
		v, err := ParseSeverity(name)
		if err != nil {
			return err
		}
		*s = v
		return nil
	}
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		var n int
		if err2 := json.Unmarshal(data, &n); err2 == nil {
			*s = Severity(n)
			return nil
		}
		return err
	}
	v, err := ParseSeverity(name)
	if err != nil {
		return err
	}
	*s = v
	return nil
}

// plainQuoted returns the inside of data when data is a JSON string of
// printable ASCII without escapes, which decodes to exactly those bytes.
func plainQuoted(data []byte) (string, bool) {
	if len(data) < 2 || data[0] != '"' || data[len(data)-1] != '"' {
		return "", false
	}
	inner := data[1 : len(data)-1]
	for _, b := range inner {
		if b < 0x20 || b > 0x7e || b == '"' || b == '\\' {
			return "", false
		}
	}
	return string(inner), true
}

// ParseSeverity parses a level name as rendered by String; the empty
// string parses as SevInfo (report everything).
func ParseSeverity(name string) (Severity, error) {
	switch strings.ToLower(name) {
	case "", "info":
		return SevInfo, nil
	case "low":
		return SevLow, nil
	case "medium":
		return SevMedium, nil
	case "high":
		return SevHigh, nil
	case "critical":
		return SevCritical, nil
	default:
		return 0, fmt.Errorf("findings: unknown severity %q", name)
	}
}

// String names the level.
func (s Severity) String() string {
	switch s {
	case SevLow:
		return "low"
	case SevMedium:
		return "medium"
	case SevHigh:
		return "high"
	case SevCritical:
		return "critical"
	default:
		return "info"
	}
}

// Finding is one piece of security evidence, normalized across analyzers.
type Finding struct {
	// Rule identifies the producing check (e.g. "taint-unchecked-copy",
	// "lint/unsafe-call", "absint/possible-div-by-zero").
	Rule string
	// CWE is the mapped weakness class, 0 when the rule is a pure code-
	// quality signal with no CWE assignment.
	CWE      cwe.ID
	File     string
	Line     int
	Severity Severity
	Message  string
}

// sinkRule classifies a taint sink into (rule, CWE, severity).
type sinkRule struct {
	rule string
	id   cwe.ID
	sev  Severity
}

// SinkRules maps each name in the taint sink table (dataflow.SinkNames) to
// its weakness class: unchecked copies evidence stack smashing (CWE-121),
// spawning with attacker data evidences OS command injection (CWE-78),
// attacker-controlled format strings evidence CWE-134.
var SinkRules = map[string]sinkRule{
	"strcpy":    {"taint-unchecked-copy", 121, SevHigh},
	"strcat":    {"taint-unchecked-copy", 121, SevHigh},
	"sprintf":   {"taint-unchecked-copy", 121, SevHigh},
	"memcpy":    {"taint-unchecked-copy", 121, SevHigh},
	"system":    {"taint-spawn", 78, SevCritical},
	"exec":      {"taint-spawn", 78, SevCritical},
	"execve":    {"taint-spawn", 78, SevCritical},
	"popen":     {"taint-spawn", 78, SevCritical},
	"printf":    {"taint-format", 134, SevHigh},
	"sql_query": {"taint-sql", 89, SevCritical},
	"send":      {"taint-exfil", 200, SevMedium},
	"write_log": {"taint-exfil", 200, SevMedium},
}

// LintRules maps each lint rule to its weakness class; rules that are code
// smells rather than weaknesses map to CWE 0 and stay in the stream as
// low-severity evidence.
var LintRules = map[lint.Rule]struct {
	ID  cwe.ID
	Sev Severity
}{
	lint.RuleUnsafeCall:        {676, SevMedium},
	lint.RuleFormatString:      {134, SevHigh},
	lint.RuleUncheckedAlloc:    {476, SevMedium},
	lint.RuleDivByZeroRisk:     {369, SevMedium},
	lint.RuleInfiniteLoop:      {835, SevMedium},
	lint.RuleAssignInCondition: {0, SevLow},
	lint.RuleEmptyCatch:        {0, SevLow},
	lint.RuleMissingReturn:     {0, SevLow},
	lint.RuleGotoUse:           {0, SevInfo},
	lint.RuleDeadStore:         {0, SevInfo},
	lint.RuleDeepExpression:    {0, SevInfo},
	lint.RuleLongParameterList: {0, SevInfo},
}

// AbsintRules maps abstract-interpretation warning kinds to weakness
// classes: a possible negative index is an out-of-bounds access (CWE-119
// family), possible division by zero is CWE-369.
var AbsintRules = map[string]struct {
	ID  cwe.ID
	Sev Severity
}{
	"possible-div-by-zero":    {369, SevMedium},
	"possible-mod-by-zero":    {369, SevMedium},
	"possible-negative-index": {119, SevHigh},
}

// FileAnalysis is the findings view of one file, plus the two whole-program
// taint aggregates the feature vector consumes directly.
type FileAnalysis struct {
	Findings []Finding
	// InterTaintSinks is the interprocedural taint finding count
	// (the "interproc_tainted_sinks" feature contribution).
	InterTaintSinks int
	// TaintMaxChain is the number of functions on the longest
	// source-to-sink call chain ("taint_path_depth_max" contribution).
	TaintMaxChain int
	// LintWarnings is the number of lint warnings among Findings.
	LintWarnings int
}

// AnalyzeFile runs every findings producer over one file of language l
// whose bytes are content, given ast and prog as ir.Parse returns them for
// content. The token-level lint rules apply to any language; lint's AST
// rules need prog, and the taint engine and abstract interpreter need prog
// and l MiniC or C. A nil prog (the file did not parse or did not lower)
// runs the token rules alone. The result is a function of l and content
// alone, sorted by (line, rule, message), with every finding's File blank:
// the caller, which knows the path, fills it in.
func AnalyzeFile(l lang.Language, content string, ast *minic.Program, prog *ir.Program) FileAnalysis {
	var fa FileAnalysis
	rep := lint.CheckFile(metrics.File{Language: l, Content: content}, ast, prog)
	fa.LintWarnings = rep.Total()
	for _, w := range rep.Warnings {
		m := LintRules[w.Rule]
		fa.Findings = append(fa.Findings, Finding{
			Rule:     "lint/" + string(w.Rule),
			CWE:      m.ID,
			Line:     w.Line,
			Severity: m.Sev,
			Message:  w.Msg,
		})
	}

	if prog != nil && (l == lang.MiniC || l == lang.C) {
		fa.addDeep(prog)
	}

	sort.SliceStable(fa.Findings, func(i, j int) bool {
		a, b := fa.Findings[i], fa.Findings[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return fa
}

// addDeep appends the IR-based producers: interprocedural taint and the
// abstract interpreter.
func (fa *FileAnalysis) addDeep(lowered *ir.Program) {
	taint := dataflow.AnalyzeProgramTaint(lowered)
	fa.InterTaintSinks = len(taint.Findings)
	fa.TaintMaxChain = taint.MaxChain
	for _, tf := range taint.Findings {
		r := SinkRules[tf.Sink]
		msg := fmt.Sprintf("tainted data reaches %s in %s", tf.Sink, tf.Func)
		if tf.Depth > 0 {
			msg = fmt.Sprintf("tainted data reaches %s via %d call(s) from %s", tf.Sink, tf.Depth, tf.Func)
		}
		fa.Findings = append(fa.Findings, Finding{
			Rule:     r.rule,
			CWE:      r.id,
			Line:     tf.Line,
			Severity: r.sev,
			Message:  msg,
		})
	}

	for _, fn := range lowered.Funcs {
		for _, w := range absint.Analyze(fn).Warnings {
			m, ok := AbsintRules[w.Kind]
			if !ok {
				m.Sev = SevLow
			}
			fa.Findings = append(fa.Findings, Finding{
				Rule:     "absint/" + w.Kind,
				CWE:      m.ID,
				Line:     w.Line,
				Severity: m.Sev,
				Message:  w.Kind + " in " + fn.Name,
			})
		}
	}
}

// Report is the tree-level findings stream.
type Report struct {
	Findings []Finding
}

// Merge folds per-file findings lists, in the order given, into the
// tree-level report, sorted by (file, line, rule, message). The sort is
// stable, so findings equal on all four keep their per-file order.
func Merge(perFile [][]Finding) *Report {
	rep := &Report{}
	for _, kept := range perFile {
		rep.Findings = append(rep.Findings, kept...)
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool {
		a, b := rep.Findings[i], rep.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Message < b.Message
	})
	return rep
}

// Total returns the finding count.
func (r *Report) Total() int { return len(r.Findings) }

// CountCWE counts findings tagged as id or one of its descendants (so
// CountCWE(119) includes CWE-121 evidence).
func (r *Report) CountCWE(id cwe.ID) int {
	n := 0
	for _, f := range r.Findings {
		if f.CWE != 0 && cwe.IsA(f.CWE, id) {
			n++
		}
	}
	return n
}

// CountsByCWE tallies findings per mapped weakness, unmapped ones under 0.
func (r *Report) CountsByCWE() map[cwe.ID]int {
	out := map[cwe.ID]int{}
	for _, f := range r.Findings {
		out[f.CWE]++
	}
	return out
}

// MinSeverity returns a copy containing only findings at or above sev.
func (r *Report) MinSeverity(sev Severity) *Report {
	out := &Report{}
	for _, f := range r.Findings {
		if f.Severity >= sev {
			out.Findings = append(out.Findings, f)
		}
	}
	return out
}

// String renders the report compiler-style, one finding per line, followed
// by a per-CWE summary.
func (r *Report) String() string {
	var sb strings.Builder
	for _, f := range r.Findings {
		tag := "-"
		if f.CWE != 0 {
			tag = fmt.Sprintf("CWE-%d", f.CWE)
		}
		fmt.Fprintf(&sb, "%s:%d: %-8s %-8s [%s] %s\n",
			f.File, f.Line, f.Severity, tag, f.Rule, f.Message)
	}
	counts := r.CountsByCWE()
	ids := make([]cwe.ID, 0, len(counts))
	for id := range counts {
		if id != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) > 0 {
		fmt.Fprintf(&sb, "-- %d findings", r.Total())
		if n := counts[0]; n > 0 {
			fmt.Fprintf(&sb, " (%d unmapped)", n)
		}
		sb.WriteString("\n")
		for _, id := range ids {
			name := "?"
			if e, ok := cwe.Lookup(id); ok {
				name = e.Name
			}
			fmt.Fprintf(&sb, "   %4d x CWE-%d %s\n", counts[id], id, name)
		}
	} else if r.Total() > 0 {
		fmt.Fprintf(&sb, "-- %d findings (all unmapped)\n", r.Total())
	}
	return sb.String()
}
