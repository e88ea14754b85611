package dataflow

import (
	"maps"
	"sort"

	"repro/internal/ir"
)

// This file holds the taint engine: the source, sink and sanitizer tables,
// the origin lattice, and the one forward solver both taint passes run.
// The intraprocedural pass, AnalyzeTaint, is that solver with no summaries
// and every parameter seeded as a source, so every callee is unknown and
// "tainted" means a non-empty origin. The whole-program pass in
// interproc.go runs it with summaries and one origin bit per parameter.

// The tables mirror the attack-surface API tables: inputs arrive via
// recv/read/getenv-style functions, danger lives in strcpy/system-style
// functions, and a sanitizer's result is always clean. In the whole-program
// pass a function the program defines is applied through its summary
// instead, whatever its name.
var (
	taintSources = map[string]bool{
		"read_input": true, "recv": true, "read": true, "getenv": true,
		"fgets": true, "scanf": true, "recvfrom": true, "gets": true,
		"fread": true, "parse_packet": true,
	}
	taintSinks = map[string]bool{
		"strcpy": true, "strcat": true, "sprintf": true, "system": true,
		"exec": true, "execve": true, "popen": true, "memcpy": true,
		"printf": true, "sql_query": true, "send": true, "write_log": true,
	}
	taintSanitizers = map[string]bool{
		"sanitize": true, "validate": true, "escape": true, "clamp": true,
		"bounds_check": true,
	}
)

// SinkNames returns the sink table's function names, sorted: the calls at
// which tainted data is a finding.
func SinkNames() []string {
	names := make([]string, 0, len(taintSinks))
	for name := range taintSinks {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TaintFinding is one tainted value reaching a sink.
type TaintFinding struct {
	Func string
	Sink string
	Line int
	// Arg is the index of the tainted argument.
	Arg int
}

// TaintResult summarizes the analysis of one function.
type TaintResult struct {
	Findings []TaintFinding
}

// AnalyzeTaint runs a flow-sensitive forward taint propagation over f to a
// fixpoint, with every parameter attacker-controlled (the "inputs exposed
// to external attackers" convention). Taint propagates through
// assignments, arithmetic, array loads and stores (whole-array
// granularity), and the results of unknown calls whose arguments are
// tainted; a function the program defines is unknown here too. Findings
// are sorted by line, then argument index.
func AnalyzeTaint(f *ir.Func) TaintResult {
	entry := originState{}
	for _, p := range f.Params {
		entry[p] = originSet{src: true}
	}
	var res TaintResult
	seen := map[TaintFinding]bool{}
	solveOrigins(f, entry, nil, originEvents{
		sink: func(c *ir.Call, arg int, _ originSet) {
			tf := TaintFinding{Func: f.Name, Sink: c.Name, Line: c.Line, Arg: arg}
			if !seen[tf] {
				seen[tf] = true
				res.Findings = append(res.Findings, tf)
			}
		},
	})
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Arg < b.Arg
	})
	return res
}

// CountTaintedSinks analyzes every function of a program and returns the
// total number of findings — the "tainted_sinks" feature.
func CountTaintedSinks(p *ir.Program) int {
	n := 0
	for _, f := range p.Funcs {
		n += len(AnalyzeTaint(f).Findings)
	}
	return n
}

// originSet is the taint lattice element: a value depends on some subset of
// the current function's parameters and/or on an internal source. Parameters
// beyond the 63rd are not tracked (conservatively clean); MiniC code never
// gets near that, and the lint battery flags >6 parameters long before.
type originSet struct {
	src    bool
	params uint64
}

func (o originSet) empty() bool { return !o.src && o.params == 0 }

func (o originSet) union(p originSet) originSet {
	return originSet{src: o.src || p.src, params: o.params | p.params}
}

// originState maps each tainted variable, temporary (by its spelling) and
// array to its origin; a clean name is absent.
type originState map[string]originSet

func (t originState) of(v ir.Value) originSet {
	switch x := v.(type) {
	case ir.Var:
		return t[x.Name]
	case ir.Temp:
		return t[x.String()]
	}
	return originSet{}
}

func (t originState) set(d ir.Dest, o originSet) {
	if d == nil {
		return
	}
	if o.empty() {
		delete(t, d.String())
	} else {
		t[d.String()] = o
	}
}

func (t originState) join(src originState) {
	for k, o := range src {
		t[k] = t[k].union(o)
	}
}

func (t originState) equal(u originState) bool {
	if len(t) != len(u) {
		return false
	}
	for k, o := range t {
		if u[k] != o {
			return false
		}
	}
	return true
}

// originEvents receives what solveOrigins reports while it replays each
// converged block; a nil field is not reported.
type originEvents struct {
	// sink: argument arg of c, a call to a table sink, has origin o
	// (never empty).
	sink func(c *ir.Call, arg int, o originSet)
	// call: c calls a defined function, whose summary is callee, with
	// arguments of origins args.
	call func(c *ir.Call, callee *summaryBuilder, args []originSet)
	// exit: t is b's state after its last instruction.
	exit func(b *ir.Block, t originState)
}

// solveOrigins runs the origin dataflow over f to a fixpoint from entry,
// the entry block's initial state, then replays each block once from its
// converged in-state and reports to ev. sums holds the summaries of the
// functions the program defines; a call to any other name is unknown.
func solveOrigins(f *ir.Func, entry originState, sums map[string]*summaryBuilder, ev originEvents) {
	in := make(map[*ir.Block]originState, len(f.Blocks))
	out := make(map[*ir.Block]originState, len(f.Blocks))
	joined := originState{}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			clear(joined)
			if b == f.Entry() {
				joined.join(entry)
			}
			for _, p := range b.Preds {
				joined.join(out[p])
			}
			if _, done := out[b]; done && joined.equal(in[b]) {
				continue // out[b] is already the image of this in-state
			}
			newIn, newOut := maps.Clone(joined), maps.Clone(joined)
			transferOrigins(b, newOut, sums, originEvents{})
			if !newOut.equal(out[b]) {
				changed = true
			}
			in[b], out[b] = newIn, newOut
		}
	}
	for _, b := range f.Blocks {
		t := maps.Clone(in[b])
		transferOrigins(b, t, sums, ev)
		if ev.exit != nil {
			ev.exit(b, t)
		}
	}
}

// transferOrigins applies one block's instructions to t.
func transferOrigins(b *ir.Block, t originState, sums map[string]*summaryBuilder, ev originEvents) {
	for _, instr := range b.Instrs {
		switch x := instr.(type) {
		case *ir.Assign:
			t.set(x.Dst, t.of(x.Src))
		case *ir.BinOp:
			t.set(x.Dst, t.of(x.L).union(t.of(x.R)))
		case *ir.UnOp:
			t.set(x.Dst, t.of(x.X))
		case *ir.ArrayLoad:
			t.set(x.Dst, t[x.Array].union(t.of(x.Index)))
		case *ir.ArrayStore:
			o := t.of(x.Src).union(t.of(x.Index))
			if !o.empty() {
				t[x.Array] = t[x.Array].union(o) // weak update: arrays only gain taint
			}
		case *ir.Call:
			if callee, ok := sums[x.Name]; ok {
				// Defined function: apply its summary.
				args := make([]originSet, len(x.Args))
				for i, a := range x.Args {
					args[i] = t.of(a)
				}
				if ev.call != nil {
					ev.call(x, callee, args)
				}
				ret := originSet{src: callee.returnAlways}
				for i, ao := range args {
					if i < 64 && callee.returnFromParam&(1<<uint(i)) != 0 {
						ret = ret.union(ao)
					}
				}
				t.set(x.Dst, ret)
				continue
			}
			// Unknown callee: the source, sink and sanitizer tables.
			var argUnion originSet
			for i, a := range x.Args {
				o := t.of(a)
				argUnion = argUnion.union(o)
				if ev.sink != nil && !o.empty() && taintSinks[x.Name] {
					ev.sink(x, i, o)
				}
			}
			switch {
			case taintSources[x.Name]:
				t.set(x.Dst, originSet{src: true})
			case taintSanitizers[x.Name]:
				t.set(x.Dst, originSet{})
			default:
				// Result taint follows argument taint.
				t.set(x.Dst, argUnion)
			}
		}
	}
}
