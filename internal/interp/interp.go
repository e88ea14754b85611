// Package interp is a concrete interpreter for the IR with execution
// tracing — the dynamic-analysis substrate for §5.3's "one potential
// improvement is to collect dynamic traces; dynamic properties of a program
// may further yield additional insights or accuracy". Programs run on
// sampled inputs; the traces aggregate into branch/block coverage and
// path-diversity features, and runtime anomalies (division by zero,
// negative indices, budget exhaustion) surface as signals.
package interp

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/stats"
)

// The interpreter's budgets and sampling, at the testbed's values: a run
// stops after maxSteps block entries and instructions (guarding infinite
// loops), and ProfileFunc samples profileRuns input vectors from an RNG
// seeded with profileSeed.
const (
	maxSteps    = 20000
	profileRuns = 24
	profileSeed = 0xd1ce
)

// externalValue is the result of the callIndex-th external call that is
// not served from the run's inputs: arbitrary but deterministic.
func externalValue(callIndex int) int64 {
	return int64(callIndex%7) * 3
}

// Anomaly is a runtime event worth flagging.
type Anomaly struct {
	Kind string // "div-by-zero", "mod-by-zero", "negative-index", "steps-exhausted"
	Line int
}

// Trace records one execution.
type Trace struct {
	// Blocks is the executed block-name sequence (capped at 4096 entries).
	Blocks []string
	// BlockCounts maps block name to execution count.
	BlockCounts map[string]int
	// BranchOutcomes maps block name to [falseTaken, trueTaken] counts for
	// blocks ending in a conditional branch.
	BranchOutcomes map[string]*[2]int
	Steps          int
	Calls          int
	Returned       bool
	ReturnValue    int64
	Anomalies      []Anomaly
}

// PathSignature is a compact hash of the block sequence, used to count
// distinct executed paths.
func (t *Trace) PathSignature() uint64 {
	h := uint64(14695981039346656037)
	for _, b := range t.Blocks {
		for i := 0; i < len(b); i++ {
			h ^= uint64(b[i])
			h *= 1099511628211
		}
		h ^= '/'
		h *= 1099511628211
	}
	return h
}

// machine executes one function activation tree.
type machine struct {
	prog      *ir.Program
	inputs    []int64
	trace     *Trace
	inputPos  int
	callIndex int
	globals   map[string]int64
	arrays    map[string]map[int64]int64
}

// Run executes fn on inputs, which supply its parameters and then the
// results of input sources (ir.IsInputSource), in order; once they run dry,
// and for every other external call, externalValue does. The error is
// non-nil only for structural problems (unknown function); runtime
// anomalies are recorded in the trace instead.
func Run(prog *ir.Program, fnName string, inputs []int64) (*Trace, error) {
	fn, ok := prog.FuncByName(fnName)
	if !ok {
		return nil, fmt.Errorf("interp: unknown function %q", fnName)
	}
	m := &machine{
		prog:   prog,
		inputs: inputs,
		trace: &Trace{
			BlockCounts:    map[string]int{},
			BranchOutcomes: map[string]*[2]int{},
		},
		globals: map[string]int64{},
		arrays:  map[string]map[int64]int64{},
	}
	args := make([]int64, len(fn.Params))
	for i := range args {
		args[i] = m.nextInput()
	}
	ret, completed := m.call(fn, args, 0)
	m.trace.Returned = completed
	m.trace.ReturnValue = ret
	return m.trace, nil
}

func (m *machine) nextInput() int64 {
	if m.inputPos < len(m.inputs) {
		v := m.inputs[m.inputPos]
		m.inputPos++
		return v
	}
	m.callIndex++
	return externalValue(m.callIndex)
}

// call executes one activation; returns (value, completedNormally).
func (m *machine) call(fn *ir.Func, args []int64, depth int) (int64, bool) {
	if depth > 64 {
		m.anomaly("recursion-depth", 0)
		return 0, false
	}
	env := map[string]int64{}
	for i, p := range fn.Params {
		if i < len(args) {
			env[p] = args[i]
		}
	}
	block := fn.Entry()
	for {
		// Each block entry costs one step, so empty-body loops (while(1){})
		// still exhaust the budget.
		m.trace.Steps++
		if m.trace.Steps > maxSteps {
			m.anomaly("steps-exhausted", 0)
			return 0, false
		}
		if len(m.trace.Blocks) < 4096 {
			m.trace.Blocks = append(m.trace.Blocks, block.Name)
		}
		m.trace.BlockCounts[block.Name]++
		for _, in := range block.Instrs {
			m.trace.Steps++
			if m.trace.Steps > maxSteps {
				m.anomaly("steps-exhausted", in.SrcLine())
				return 0, false
			}
			if !m.step(in, env, depth) {
				return 0, false
			}
		}
		switch term := block.Term.(type) {
		case *ir.Ret:
			if term.Value == nil {
				return 0, true
			}
			return m.eval(term.Value, env), true
		case *ir.Jump:
			block = term.Target
		case *ir.Branch:
			cond := m.eval(term.Cond, env)
			oc, ok := m.trace.BranchOutcomes[block.Name]
			if !ok {
				oc = &[2]int{}
				m.trace.BranchOutcomes[block.Name] = oc
			}
			if cond != 0 {
				oc[1]++
				block = term.True
			} else {
				oc[0]++
				block = term.False
			}
		case nil:
			return 0, true
		}
	}
}

func (m *machine) anomaly(kind string, line int) {
	if len(m.trace.Anomalies) < 256 {
		m.trace.Anomalies = append(m.trace.Anomalies, Anomaly{Kind: kind, Line: line})
	}
}

// step executes one instruction; false means abort the run.
func (m *machine) step(in ir.Instr, env map[string]int64, depth int) bool {
	switch x := in.(type) {
	case *ir.Assign:
		m.store(x.Dst, m.eval(x.Src, env), env)
	case *ir.BinOp:
		l, r := m.eval(x.L, env), m.eval(x.R, env)
		var v int64
		switch x.Op {
		case "+":
			v = l + r
		case "-":
			v = l - r
		case "*":
			v = l * r
		case "/":
			if r == 0 {
				m.anomaly("div-by-zero", x.Line)
				return false
			}
			v = l / r
		case "%":
			if r == 0 {
				m.anomaly("mod-by-zero", x.Line)
				return false
			}
			v = l % r
		case "<":
			v = b2i(l < r)
		case "<=":
			v = b2i(l <= r)
		case ">":
			v = b2i(l > r)
		case ">=":
			v = b2i(l >= r)
		case "==":
			v = b2i(l == r)
		case "!=":
			v = b2i(l != r)
		case "&&":
			v = b2i(l != 0 && r != 0)
		case "||":
			v = b2i(l != 0 || r != 0)
		}
		m.store(x.Dst, v, env)
	case *ir.UnOp:
		v := m.eval(x.X, env)
		switch x.Op {
		case "-":
			v = -v
		case "!":
			v = b2i(v == 0)
		}
		m.store(x.Dst, v, env)
	case *ir.Call:
		m.trace.Calls++
		var result int64
		if callee, ok := m.prog.FuncByName(x.Name); ok {
			args := make([]int64, len(x.Args))
			for i, a := range x.Args {
				args[i] = m.eval(a, env)
			}
			r, completed := m.call(callee, args, depth+1)
			if !completed {
				return false
			}
			result = r
		} else if ir.IsInputSource(x.Name) {
			result = m.nextInput()
		} else {
			m.callIndex++
			result = externalValue(m.callIndex)
		}
		if x.Dst != nil {
			m.store(x.Dst, result, env)
		}
	case *ir.ArrayLoad:
		idx := m.eval(x.Index, env)
		if idx < 0 {
			m.anomaly("negative-index", x.Line)
			return false
		}
		arr := m.arrays[x.Array]
		m.store(x.Dst, arr[idx], env)
	case *ir.ArrayStore:
		idx := m.eval(x.Index, env)
		if idx < 0 {
			m.anomaly("negative-index", x.Line)
			return false
		}
		arr, ok := m.arrays[x.Array]
		if !ok {
			arr = map[int64]int64{}
			m.arrays[x.Array] = arr
		}
		arr[idx] = m.eval(x.Src, env)
	}
	return true
}

// store writes a destination; globals live in the machine, locals in env.
func (m *machine) store(d ir.Dest, v int64, env map[string]int64) {
	name := d.String()
	if m.isGlobal(name) {
		m.globals[name] = v
		return
	}
	env[name] = v
}

func (m *machine) isGlobal(name string) bool {
	for _, g := range m.prog.Globals {
		if g == name {
			return true
		}
	}
	return false
}

func (m *machine) eval(v ir.Value, env map[string]int64) int64 {
	switch x := v.(type) {
	case ir.Const:
		return x.V
	case ir.Var:
		if m.isGlobal(x.Name) {
			return m.globals[x.Name]
		}
		return env[x.Name]
	case ir.Temp:
		return env[x.String()]
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// Profile aggregates traces from many sampled runs of one function.
type Profile struct {
	Runs          int
	Completed     int
	UniquePaths   int
	BlockCoverage float64 // blocks executed at least once / blocks total
	// BranchCoverage is the fraction of conditional branches whose both
	// outcomes were observed.
	BranchCoverage float64
	MeanSteps      float64
	Anomalies      map[string]int
}

// ProfileFunc runs fn profileRuns times, each on a random input vector
// drawn from [ir.InputMin, ir.InputMax], and aggregates the traces.
func ProfileFunc(prog *ir.Program, fnName string) (*Profile, error) {
	fn, ok := prog.FuncByName(fnName)
	if !ok {
		return nil, fmt.Errorf("interp: unknown function %q", fnName)
	}
	rng := stats.NewRNG(profileSeed)
	paths := map[uint64]bool{}
	blocksSeen := map[string]bool{}
	branchSeen := map[string]*[2]int{}
	p := &Profile{Runs: profileRuns, Anomalies: map[string]int{}}
	totalSteps := 0
	for i := 0; i < profileRuns; i++ {
		// Enough inputs for params plus a few source calls per run.
		inputs := make([]int64, len(fn.Params)+8)
		for j := range inputs {
			inputs[j] = ir.InputMin + int64(rng.Intn(ir.InputMax-ir.InputMin+1))
		}
		tr, err := Run(prog, fnName, inputs)
		if err != nil {
			return nil, err
		}
		if tr.Returned {
			p.Completed++
		}
		paths[tr.PathSignature()] = true
		for b := range tr.BlockCounts {
			blocksSeen[b] = true
		}
		for b, oc := range tr.BranchOutcomes {
			agg, ok := branchSeen[b]
			if !ok {
				agg = &[2]int{}
				branchSeen[b] = agg
			}
			agg[0] += oc[0]
			agg[1] += oc[1]
		}
		for _, a := range tr.Anomalies {
			p.Anomalies[a.Kind]++
		}
		totalSteps += tr.Steps
	}
	p.UniquePaths = len(paths)
	p.MeanSteps = float64(totalSteps) / profileRuns
	if n := len(fn.Blocks); n > 0 {
		covered := 0
		for _, b := range fn.Blocks {
			if blocksSeen[b.Name] {
				covered++
			}
		}
		p.BlockCoverage = float64(covered) / float64(n)
	}
	branches := 0
	bothSides := 0
	for _, b := range fn.Blocks {
		if _, isBranch := b.Term.(*ir.Branch); !isBranch {
			continue
		}
		branches++
		if oc, ok := branchSeen[b.Name]; ok && oc[0] > 0 && oc[1] > 0 {
			bothSides++
		}
	}
	if branches > 0 {
		p.BranchCoverage = float64(bothSides) / float64(branches)
	} else {
		p.BranchCoverage = 1
	}
	return p, nil
}
