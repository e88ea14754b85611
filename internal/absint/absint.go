// Package absint implements abstract interpretation over the IR with the
// interval domain — the second §4.1 technique the paper names alongside
// symbolic execution ("using symbolic execution or abstract interpretation,
// we can calculate the number of different execution paths in a program").
// Where the symbolic executor enumerates paths under a budget, the abstract
// interpreter computes a sound fixpoint over ALL paths: per-block variable
// ranges, reachability, and whole-program warnings (possible division by
// zero, possible negative array index) with widening to guarantee
// termination on loops.
package absint

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/symexec"
)

// inputRange is assumed for parameters and the results of input sources
// (ir.IsInputSource): the byte range ir declares, as in the symbolic
// executor. Nothing assigns it: it is a constant Go cannot declare as one.
var inputRange = symexec.Interval{Lo: ir.InputMin, Hi: ir.InputMax}

// widenAfter is the number of joins at a block before widening kicks in.
const widenAfter = 3

// Warning is a possible runtime fault the abstract semantics cannot rule
// out.
type Warning struct {
	Kind string // "possible-div-by-zero", "possible-negative-index"
	Line int
}

// Result is the analysis outcome for one function.
type Result struct {
	// In maps each block to the variable ranges on entry (nil for
	// unreachable blocks).
	In map[*ir.Block]State
	// ReturnRange over-approximates every return value (empty when the
	// function cannot return a value).
	ReturnRange symexec.Interval
	// Unreachable lists blocks the analysis proves dead.
	Unreachable []*ir.Block
	Warnings    []Warning
	// Iterations is the number of fixpoint passes taken.
	Iterations int
}

// State maps variable names to intervals. Missing names are unconstrained.
type State map[string]symexec.Interval

func (s State) clone() State {
	out := make(State, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// get returns the interval of name, defaulting to Top.
func (s State) get(name string) symexec.Interval {
	if iv, ok := s[name]; ok {
		return iv
	}
	return symexec.Top()
}

// join computes the pointwise convex hull; names absent on either side go
// to Top (absent means unconstrained, not bottom, since every tracked name
// has been assigned on that path).
func join(a, b State) State {
	out := State{}
	for k, av := range a {
		if bv, ok := b[k]; ok {
			out[k] = av.Join(bv)
		}
		// Present only in a: unconstrained on the other path -> drop to Top
		// by omission.
	}
	return out
}

// widen applies interval widening: bounds that grew since prev jump to the
// domain limits so loops converge.
func widen(prev, next State) State {
	out := State{}
	for k, nv := range next {
		pv, ok := prev[k]
		if !ok {
			out[k] = nv
			continue
		}
		w := nv
		if nv.Lo < pv.Lo {
			w.Lo = -symexec.Bound
		}
		if nv.Hi > pv.Hi {
			w.Hi = symexec.Bound
		}
		out[k] = w
	}
	return out
}

func statesEqual(a, b State) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		bv, ok := b[k]
		if !ok || av != bv {
			return false
		}
	}
	return true
}

// Analyze runs the fixpoint over one function.
func Analyze(f *ir.Func) *Result {
	res := &Result{
		In:          map[*ir.Block]State{},
		ReturnRange: symexec.Interval{Lo: 1, Hi: 0},
	}
	entry := State{}
	for _, p := range f.Params {
		entry[p] = inputRange
	}
	res.In[f.Entry()] = entry

	joinCount := map[*ir.Block]int{}
	warned := map[Warning]bool{}

	// Worklist fixpoint in block order for determinism.
	inWork := map[*ir.Block]bool{f.Entry(): true}
	for {
		var blk *ir.Block
		for _, b := range f.Blocks { // deterministic pick: lowest ID first
			if inWork[b] {
				blk = b
				break
			}
		}
		if blk == nil {
			break
		}
		inWork[blk] = false
		res.Iterations++
		if res.Iterations > 10000 {
			break // safety valve; widening should converge long before this
		}
		st := res.In[blk].clone()
		// Transfer the block (warnings only recorded once per site).
		for _, in := range blk.Instrs {
			step(in, st, func(w Warning) {
				if !warned[w] {
					warned[w] = true
					res.Warnings = append(res.Warnings, w)
				}
			})
		}
		// Propagate through the terminator.
		push := func(succ *ir.Block, out State) {
			cur, seen := res.In[succ]
			if !seen {
				res.In[succ] = out
				inWork[succ] = true
				return
			}
			merged := join(cur, out)
			joinCount[succ]++
			if joinCount[succ] > widenAfter {
				merged = widen(cur, merged)
			}
			if !statesEqual(cur, merged) {
				res.In[succ] = merged
				inWork[succ] = true
			}
		}
		switch term := blk.Term.(type) {
		case *ir.Jump:
			push(term.Target, st)
		case *ir.Branch:
			cond := evalValue(term.Cond, st)
			switch symexec.TruthOf(cond) {
			case symexec.AlwaysTrue:
				push(term.True, st)
			case symexec.AlwaysFalse:
				push(term.False, st)
			default:
				// No per-branch refinement in the base domain: both arms get
				// the joined state (sound; symexec supplies the refinement
				// precision when needed).
				push(term.True, st.clone())
				push(term.False, st)
			}
		case *ir.Ret:
			if term.Value != nil {
				res.ReturnRange = res.ReturnRange.Join(evalValue(term.Value, st))
			}
		}
	}

	for _, b := range f.Blocks {
		if _, ok := res.In[b]; !ok {
			res.Unreachable = append(res.Unreachable, b)
		}
	}
	sort.Slice(res.Warnings, func(i, j int) bool {
		if res.Warnings[i].Line != res.Warnings[j].Line {
			return res.Warnings[i].Line < res.Warnings[j].Line
		}
		return res.Warnings[i].Kind < res.Warnings[j].Kind
	})
	return res
}

// step transfers one instruction over the state.
func step(in ir.Instr, st State, warn func(Warning)) {
	switch x := in.(type) {
	case *ir.Assign:
		st[x.Dst.String()] = evalValue(x.Src, st)
	case *ir.BinOp:
		l, r := evalValue(x.L, st), evalValue(x.R, st)
		var out symexec.Interval
		switch x.Op {
		case "+":
			out = l.Add(r)
		case "-":
			out = l.Sub(r)
		case "*":
			out = l.Mul(r)
		case "/":
			if r.Contains(0) {
				warn(Warning{Kind: "possible-div-by-zero", Line: x.Line})
			}
			out = l.Div(r)
		case "%":
			if r.Contains(0) {
				warn(Warning{Kind: "possible-mod-by-zero", Line: x.Line})
			}
			out = l.Mod(r)
		case "<", "<=", ">", ">=", "==", "!=":
			out = symexec.Compare(x.Op, l, r)
		case "&&", "||":
			out = symexec.Interval{Lo: 0, Hi: 1}
		default:
			out = symexec.Top()
		}
		st[x.Dst.String()] = out
	case *ir.UnOp:
		v := evalValue(x.X, st)
		switch x.Op {
		case "-":
			st[x.Dst.String()] = v.Neg()
		case "!":
			switch symexec.TruthOf(v) {
			case symexec.AlwaysTrue:
				st[x.Dst.String()] = symexec.Single(0)
			case symexec.AlwaysFalse:
				st[x.Dst.String()] = symexec.Single(1)
			default:
				st[x.Dst.String()] = symexec.Interval{Lo: 0, Hi: 1}
			}
		default:
			st[x.Dst.String()] = symexec.Top()
		}
	case *ir.Call:
		if x.Dst != nil {
			if ir.IsInputSource(x.Name) {
				st[x.Dst.String()] = inputRange
			} else {
				st[x.Dst.String()] = symexec.Top()
			}
		}
	case *ir.ArrayLoad:
		idx := evalValue(x.Index, st)
		if idx.Lo < 0 {
			warn(Warning{Kind: "possible-negative-index", Line: x.Line})
		}
		st[x.Dst.String()] = symexec.Top()
	case *ir.ArrayStore:
		idx := evalValue(x.Index, st)
		if idx.Lo < 0 {
			warn(Warning{Kind: "possible-negative-index", Line: x.Line})
		}
	}
}

func evalValue(v ir.Value, st State) symexec.Interval {
	switch x := v.(type) {
	case ir.Const:
		return symexec.Single(x.V)
	case ir.Var:
		return st.get(x.Name)
	case ir.Temp:
		return st.get(x.String())
	}
	return symexec.Top()
}
