// Package lint is the bug-finding-tool substrate (§4.2: "leveraging
// bug-finding tools"). It runs a battery of rule-based checkers over token
// streams and, where the source parses as MiniC, over the AST, producing
// per-rule warning counts that feed the prediction model as features — the
// paper's suggestion that even noisy bug-finder output carries signal.
package lint

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/ir"
	"repro/internal/lexer"
	"repro/internal/metrics"
	"repro/internal/minic"
)

// Rule identifies one checker.
type Rule string

// The rule battery.
const (
	RuleUnsafeCall        Rule = "unsafe-call"         // strcpy/gets/sprintf/...
	RuleFormatString      Rule = "format-string"       // printf(var) with no literal
	RuleAssignInCondition Rule = "assign-in-condition" // if (x = y)
	RuleUncheckedAlloc    Rule = "unchecked-alloc"     // malloc result unused/unchecked
	RuleEmptyCatch        Rule = "empty-catch"         // catch (...) {}
	RuleGotoUse           Rule = "goto-use"
	RuleDeadStore         Rule = "dead-store"      // value written, never read (MiniC)
	RuleDivByZeroRisk     Rule = "div-by-zero"     // x / y with unvalidated divisor (MiniC)
	RuleInfiniteLoop      Rule = "infinite-loop"   // while(1) without break (MiniC)
	RuleMissingReturn     Rule = "missing-return"  // fallthrough end of int function (MiniC)
	RuleDeepExpression    Rule = "deep-expression" // expressions nested > 8 levels
	RuleLongParameterList Rule = "long-parameter-list"
)

// Warning is one finding.
type Warning struct {
	Rule Rule
	File string
	Line int
	Msg  string
}

// Report aggregates findings.
type Report struct {
	Warnings []Warning
}

// Count returns the number of warnings for one rule.
func (r *Report) Count(rule Rule) int {
	n := 0
	for _, w := range r.Warnings {
		if w.Rule == rule {
			n++
		}
	}
	return n
}

// Total returns the total number of warnings.
func (r *Report) Total() int { return len(r.Warnings) }

// Counts returns per-rule counts, sorted by rule name.
func (r *Report) Counts() map[Rule]int {
	out := map[Rule]int{}
	for _, w := range r.Warnings {
		out[w.Rule]++
	}
	return out
}

var unsafeCalls = map[string]bool{
	"strcpy": true, "strcat": true, "gets": true, "sprintf": true,
	"vsprintf": true, "scanf": true, "alloca": true, "strtok": true,
}

// Check runs every applicable rule over the tree, parsing each file with
// ir.Parse for the AST rules.
func Check(t *metrics.Tree) *Report {
	rep := &Report{}
	// Per-file scratch, reused across the tree so steady-state checking does
	// not allocate token storage per file.
	var all, code []lexer.Token
	for _, f := range t.Files {
		all = lexer.TokenizeInto(all[:0], f.Content, f.Language)
		code = lexer.CodeInto(code[:0], all)
		ast, prog, _ := ir.Parse(f.Content)
		checkFile(f, code, ast, prog, rep)
	}
	sort.SliceStable(rep.Warnings, func(i, j int) bool {
		if rep.Warnings[i].File != rep.Warnings[j].File {
			return rep.Warnings[i].File < rep.Warnings[j].File
		}
		return rep.Warnings[i].Line < rep.Warnings[j].Line
	})
	return rep
}

// CheckFile runs every applicable rule over one file, given ast and prog
// as ir.Parse returns them for its content. A nil prog (the file did not
// parse or did not lower) runs the token rules alone. Warnings depend only
// on the file itself, so a tree report is exactly the per-file reports
// concatenated (then sorted); incremental analyses rely on that to
// maintain warning totals by delta.
func CheckFile(f metrics.File, ast *minic.Program, prog *ir.Program) *Report {
	rep := &Report{}
	code := lexer.CodeInto(nil, lexer.Tokenize(f.Content, f.Language))
	checkFile(f, code, ast, prog, rep)
	return rep
}

// checkFile folds one file's token and AST rules into rep. The AST rules
// apply, in any language, to files that parse as MiniC and lower.
func checkFile(f metrics.File, code []lexer.Token, ast *minic.Program, prog *ir.Program, rep *Report) {
	checkTokens(f, code, rep)
	if prog != nil {
		checkAST(f.Path, ast, prog, rep)
	}
}

// checkTokens runs the token rules over the file's semantic token stream.
func checkTokens(f metrics.File, toks []lexer.Token, rep *Report) {
	parenDepth := 0
	condParen := -1 // depth at which an if/while condition opened
	for i, tok := range toks {
		switch tok.Kind {
		case lexer.Keyword:
			switch tok.Text() {
			case "goto":
				rep.add(RuleGotoUse, f.Path, int(tok.Line), "goto considered harmful")
			case "if", "while":
				if i+1 < len(toks) && toks[i+1].Text() == "(" {
					condParen = parenDepth + 1
				}
			case "catch":
				// catch (...) { } with empty body
				if j := matchEmptyCatch(toks, i); j >= 0 {
					rep.add(RuleEmptyCatch, f.Path, int(tok.Line), "empty catch block swallows errors")
				}
			}
		case lexer.Ident:
			isCall := i+1 < len(toks) && toks[i+1].Text() == "("
			if isCall && unsafeCalls[tok.Text()] {
				rep.add(RuleUnsafeCall, f.Path, int(tok.Line), "call to unsafe API "+tok.Text())
			}
			if isCall && (tok.Text() == "printf" || tok.Text() == "fprintf" || tok.Text() == "syslog") {
				if !firstArgIsLiteral(toks, i+1, tok.Text() == "fprintf" || tok.Text() == "syslog") {
					rep.add(RuleFormatString, f.Path, int(tok.Line), "non-literal format string in "+tok.Text())
				}
			}
			if isCall && tok.Text() == "malloc" {
				if !allocChecked(toks, i) {
					rep.add(RuleUncheckedAlloc, f.Path, int(tok.Line), "malloc result not checked against NULL")
				}
			}
		case lexer.Punct:
			switch tok.Text() {
			case "(":
				parenDepth++
			case ")":
				parenDepth--
				if condParen > parenDepth {
					condParen = -1
				}
			}
		case lexer.Operator:
			if tok.Text() == "=" && condParen > 0 && parenDepth >= condParen {
				// Assignment directly inside an if/while condition.
				rep.add(RuleAssignInCondition, f.Path, int(tok.Line), "assignment inside condition; did you mean ==?")
			}
		}
	}
	checkDeepExpressions(f, toks, rep)
	checkLongParams(f, toks, rep)
}

// matchEmptyCatch reports the index of the '}' if toks[i] starts
// "catch ( ... ) { }", else -1.
func matchEmptyCatch(toks []lexer.Token, i int) int {
	j := i + 1
	if j >= len(toks) || toks[j].Text() != "(" {
		return -1
	}
	depth := 0
	for ; j < len(toks); j++ {
		if toks[j].Text() == "(" {
			depth++
		}
		if toks[j].Text() == ")" {
			depth--
			if depth == 0 {
				break
			}
		}
	}
	if j+2 < len(toks) && toks[j+1].Text() == "{" && toks[j+2].Text() == "}" {
		return j + 2
	}
	return -1
}

// firstArgIsLiteral checks whether the format argument of a printf-family
// call is a string literal. skipOne skips the stream/priority argument of
// fprintf/syslog.
func firstArgIsLiteral(toks []lexer.Token, openParen int, skipOne bool) bool {
	depth := 0
	argIndex := 0
	want := 0
	if skipOne {
		want = 1
	}
	for i := openParen; i < len(toks); i++ {
		switch toks[i].Text() {
		case "(":
			depth++
			continue
		case ")":
			depth--
			if depth == 0 {
				return false
			}
			continue
		case ",":
			if depth == 1 {
				argIndex++
			}
			continue
		}
		if depth == 1 && argIndex == want {
			return toks[i].Kind == lexer.String
		}
	}
	return false
}

// allocChecked heuristically decides whether "x = malloc(...)" is followed
// within a few tokens by a check mentioning x ("if (x == NULL)", "if (!x)").
func allocChecked(toks []lexer.Token, callIdx int) bool {
	// Identify the assigned variable: pattern "ident = malloc".
	var varName string
	if callIdx >= 2 && toks[callIdx-1].Text() == "=" && toks[callIdx-2].Kind == lexer.Ident {
		varName = toks[callIdx-2].Text()
	}
	if varName == "" {
		return false
	}
	// Scan forward a bounded window for "if" ... varName.
	for i := callIdx; i < len(toks) && i < callIdx+40; i++ {
		if toks[i].Kind == lexer.Keyword && toks[i].Text() == "if" {
			for j := i; j < len(toks) && j < i+12; j++ {
				if toks[j].Kind == lexer.Ident && toks[j].Text() == varName {
					return true
				}
			}
		}
	}
	return false
}

func checkDeepExpressions(f metrics.File, toks []lexer.Token, rep *Report) {
	depth := 0
	reported := map[int]bool{}
	for _, tok := range toks {
		switch tok.Text() {
		case "(":
			depth++
			if depth > 8 && !reported[int(tok.Line)] {
				reported[int(tok.Line)] = true
				rep.add(RuleDeepExpression, f.Path, int(tok.Line), "expression nested deeper than 8 levels")
			}
		case ")":
			if depth > 0 {
				depth--
			}
		case ";", "{", "}":
			depth = 0 // statement boundary resets (defensive against imbalance)
		}
	}
}

func checkLongParams(f metrics.File, toks []lexer.Token, rep *Report) {
	for _, fn := range metrics.CyclomaticTokens(f, toks) {
		if fn.Params > 6 {
			rep.add(RuleLongParameterList, f.Path, fn.Line, "function "+fn.Name+" has too many parameters")
		}
	}
}

func (r *Report) add(rule Rule, file string, line int, msg string) {
	r.Warnings = append(r.Warnings, Warning{Rule: rule, File: file, Line: line, Msg: msg})
}

// String renders warnings one per line, compiler style.
func (r *Report) String() string {
	var sb strings.Builder
	for _, w := range r.Warnings {
		sb.WriteString(w.File)
		sb.WriteString(":")
		sb.WriteString(strconv.Itoa(w.Line))
		sb.WriteString(": [")
		sb.WriteString(string(w.Rule))
		sb.WriteString("] ")
		sb.WriteString(w.Msg)
		sb.WriteString("\n")
	}
	return sb.String()
}
