package dataflow

import (
	"sort"

	"repro/internal/ir"
)

// This file keeps the boolean taint solver AnalyzeTaint replaced: a
// tainted/clean bit per name, every parameter tainted on entry, and its own
// copy of the source, sink and sanitizer tables. AnalyzeTaint, the origin
// solver run without summaries, must report the same findings in the same
// order on every function; TestAnalyzeTaintMatchesReference and FuzzTaint
// hold it to that.

var (
	refSources = map[string]bool{
		"read_input": true, "recv": true, "read": true, "getenv": true,
		"fgets": true, "scanf": true, "recvfrom": true, "gets": true,
		"fread": true, "parse_packet": true,
	}
	refSinks = map[string]bool{
		"strcpy": true, "strcat": true, "sprintf": true, "system": true,
		"exec": true, "execve": true, "popen": true, "memcpy": true,
		"printf": true, "sql_query": true, "send": true, "write_log": true,
	}
	refSanitizers = map[string]bool{
		"sanitize": true, "validate": true, "escape": true, "clamp": true,
		"bounds_check": true,
	}
)

// refAnalyzeTaint runs a flow-sensitive forward taint propagation over f to
// a fixpoint. Taint propagates through assignments, arithmetic, array loads
// and stores (whole-array granularity), and unknown-function call results
// whose arguments are tainted.
func refAnalyzeTaint(f *ir.Func) []TaintFinding {
	in := map[*ir.Block]map[string]bool{}
	out := map[*ir.Block]map[string]bool{}
	for _, b := range f.Blocks {
		in[b] = map[string]bool{}
		out[b] = map[string]bool{}
	}
	entryTaint := map[string]bool{}
	for _, p := range f.Params {
		entryTaint[p] = true
	}

	valueTainted := func(v ir.Value, t map[string]bool) bool {
		switch x := v.(type) {
		case ir.Const:
			return false
		case ir.Var:
			return t[x.Name]
		case ir.Temp:
			return t[x.String()]
		}
		return false
	}

	// transfer applies one block's instructions to a taint set, optionally
	// recording sink findings.
	transfer := func(b *ir.Block, t map[string]bool, record func(TaintFinding)) {
		for _, instr := range b.Instrs {
			switch x := instr.(type) {
			case *ir.Assign:
				setTaint(t, x.Dst, valueTainted(x.Src, t))
			case *ir.BinOp:
				setTaint(t, x.Dst, valueTainted(x.L, t) || valueTainted(x.R, t))
			case *ir.UnOp:
				setTaint(t, x.Dst, valueTainted(x.X, t))
			case *ir.ArrayLoad:
				setTaint(t, x.Dst, t[x.Array] || valueTainted(x.Index, t))
			case *ir.ArrayStore:
				if valueTainted(x.Src, t) || valueTainted(x.Index, t) {
					t[x.Array] = true // weak update: arrays only gain taint
				}
			case *ir.Call:
				tainted := false
				for argIdx, a := range x.Args {
					if valueTainted(a, t) {
						tainted = true
						if refSinks[x.Name] && record != nil {
							record(TaintFinding{Func: f.Name, Sink: x.Name, Line: x.Line, Arg: argIdx})
						}
					}
				}
				switch {
				case refSources[x.Name]:
					setTaint(t, x.Dst, true)
				case refSanitizers[x.Name]:
					setTaint(t, x.Dst, false)
				default:
					// Unknown callee: result taint follows argument taint.
					setTaint(t, x.Dst, tainted)
				}
			}
		}
	}

	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			newIn := map[string]bool{}
			if b == f.Entry() {
				for v := range entryTaint {
					newIn[v] = true
				}
			}
			for _, p := range b.Preds {
				for v := range out[p] {
					newIn[v] = true
				}
			}
			newOut := cloneSet(newIn)
			transfer(b, newOut, nil)
			if !setEq(newIn, in[b]) || !setEq(newOut, out[b]) {
				in[b] = newIn
				out[b] = newOut
				changed = true
			}
		}
	}

	// Final pass: collect findings with the converged in-sets.
	var findings []TaintFinding
	seen := map[TaintFinding]bool{}
	for _, b := range f.Blocks {
		t := cloneSet(in[b])
		transfer(b, t, func(tf TaintFinding) {
			if !seen[tf] {
				seen[tf] = true
				findings = append(findings, tf)
			}
		})
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Arg < b.Arg
	})
	return findings
}

func setTaint(t map[string]bool, d ir.Dest, tainted bool) {
	if d == nil {
		return
	}
	name := d.String()
	if tainted {
		t[name] = true
	} else {
		delete(t, name)
	}
}

func cloneSet(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}
