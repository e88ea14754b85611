package dataflow

import (
	"sort"

	"repro/internal/callgraph"
	"repro/internal/ir"
)

// This file implements the interprocedural half of the taint engine: a
// summary-based, bottom-up whole-program analysis. Each function is analyzed
// once per fixpoint round with the origin solver (which of my parameters, or
// an internal source, does this value depend on?); the result is a Summary.
// Summaries propagate over the SCC condensation of the call graph in
// callee-before-caller order, so a network read in main reaching a
// strcpy-style sink several calls deep is finally counted — the flow the
// intraprocedural AnalyzeTaint stops at the function boundary for.

// SinkReach is one sink transitively reachable from a summarized function.
// Line is the call-site line inside the summarized function: the sink call
// itself at Depth 0, or the call that starts the chain towards it otherwise.
type SinkReach struct {
	Sink  string
	Line  int
	Depth int // call edges from the summarized function to the sink call
}

// Summary is the interprocedural behavior of one function: how taint flows
// through it (parameters to return value) and which sinks fire when taint
// flows in.
type Summary struct {
	Name string
	// ReturnFromParams lists parameter indices whose taint reaches the
	// return value, sorted.
	ReturnFromParams []int
	// ReturnAlways reports that the return value is tainted regardless of
	// inputs (a source call inside the function, or a callee's, reaches it).
	ReturnAlways bool
	// ParamSinks maps a parameter index to the sinks that fire when that
	// parameter is tainted.
	ParamSinks map[int][]SinkReach
	// LocalSinks fire regardless of inputs: taint born inside the function
	// (or returned by a callee's source) reaches them.
	LocalSinks []SinkReach
}

// InterFinding is one whole-program taint flow: inside Func, attacker data
// reaches (a call chain ending in) Sink. Depth counts the call edges between
// Func and the sink call, so Depth 0 is an ordinary intraprocedural finding
// and Depth 2 means the tainted value was passed through two calls before
// hitting the sink.
type InterFinding struct {
	Func  string
	Sink  string
	Line  int
	Depth int
}

// InterResult is the whole-program analysis outcome.
type InterResult struct {
	Findings  []InterFinding
	Summaries map[string]Summary
	// MaxChain is the number of functions on the longest source-to-sink
	// chain observed (max Depth + 1), 0 when there are no findings.
	MaxChain int
}

// sinkKey dedups sink reaches per summarized function; depth is kept
// separately as a min so fixpoint iteration is monotone.
type sinkKey struct {
	sink string
	line int
}

// summaryBuilder is the mutable fixpoint form of a Summary.
type summaryBuilder struct {
	nParams         int
	returnFromParam uint64
	returnAlways    bool
	paramSinks      []map[sinkKey]int // per param: (sink, line) -> min depth
	localSinks      map[sinkKey]int
}

func newSummaryBuilder(nParams int) *summaryBuilder {
	sb := &summaryBuilder{
		nParams:    nParams,
		paramSinks: make([]map[sinkKey]int, nParams),
		localSinks: map[sinkKey]int{},
	}
	for i := range sb.paramSinks {
		sb.paramSinks[i] = map[sinkKey]int{}
	}
	return sb
}

// addReach records a sink reach for every origin in o: an internal source
// becomes a local sink, parameter origins become conditional ones.
func (sb *summaryBuilder) addReach(o originSet, k sinkKey, depth int) {
	put := func(m map[sinkKey]int) {
		if d, ok := m[k]; !ok || depth < d {
			m[k] = depth
		}
	}
	if o.src {
		put(sb.localSinks)
	}
	for i := 0; i < sb.nParams && i < 64; i++ {
		if o.params&(1<<uint(i)) != 0 {
			put(sb.paramSinks[i])
		}
	}
}

func sinkMapsEqual(a, b map[sinkKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

func (sb *summaryBuilder) equal(other *summaryBuilder) bool {
	if sb.returnFromParam != other.returnFromParam || sb.returnAlways != other.returnAlways {
		return false
	}
	if !sinkMapsEqual(sb.localSinks, other.localSinks) {
		return false
	}
	for i := range sb.paramSinks {
		if !sinkMapsEqual(sb.paramSinks[i], other.paramSinks[i]) {
			return false
		}
	}
	return true
}

func sortedReaches(m map[sinkKey]int) []SinkReach {
	out := make([]SinkReach, 0, len(m))
	for k, d := range m {
		out = append(out, SinkReach{Sink: k.sink, Line: k.line, Depth: d})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Line != out[j].Line {
			return out[i].Line < out[j].Line
		}
		if out[i].Sink != out[j].Sink {
			return out[i].Sink < out[j].Sink
		}
		return out[i].Depth < out[j].Depth
	})
	return out
}

func (sb *summaryBuilder) finish(name string) Summary {
	s := Summary{Name: name, ReturnAlways: sb.returnAlways, ParamSinks: map[int][]SinkReach{}}
	for i := 0; i < sb.nParams && i < 64; i++ {
		if sb.returnFromParam&(1<<uint(i)) != 0 {
			s.ReturnFromParams = append(s.ReturnFromParams, i)
		}
		if len(sb.paramSinks[i]) > 0 {
			s.ParamSinks[i] = sortedReaches(sb.paramSinks[i])
		}
	}
	s.LocalSinks = sortedReaches(sb.localSinks)
	return s
}

// analyzeOrigins runs the origin solver over one function against the
// current summary environment, parameter i starting with origin bit i, and
// returns the function's new summary.
func analyzeOrigins(f *ir.Func, sums map[string]*summaryBuilder) *summaryBuilder {
	sb := newSummaryBuilder(len(f.Params))
	entry := originState{}
	for i, p := range f.Params {
		if i < 64 {
			entry[p] = originSet{params: 1 << uint(i)}
		}
	}
	solveOrigins(f, entry, sums, originEvents{
		sink: func(c *ir.Call, _ int, o originSet) {
			sb.addReach(o, sinkKey{sink: c.Name, line: c.Line}, 0)
		},
		call: func(c *ir.Call, callee *summaryBuilder, args []originSet) {
			for i, ao := range args {
				if ao.empty() || i >= len(callee.paramSinks) {
					continue
				}
				for k, depth := range callee.paramSinks[i] {
					sb.addReach(ao, sinkKey{sink: k.sink, line: c.Line}, depth+1)
				}
			}
		},
		exit: func(b *ir.Block, t originState) {
			if ret, isRet := b.Term.(*ir.Ret); isRet && ret.Value != nil {
				o := t.of(ret.Value)
				sb.returnAlways = sb.returnAlways || o.src
				sb.returnFromParam |= o.params
			}
		},
	})
	return sb
}

// AnalyzeProgramTaint runs the whole-program taint analysis: summaries are
// computed bottom-up over the SCC condensation of the call graph (iterating
// to a fixpoint inside recursive components), then findings are read off the
// converged summaries — every function's source-fed sinks, plus the flows
// from the parameters of call-graph roots (functions no defined function
// calls, plus main), the "inputs exposed to external attackers"
// convention. Interior parameters are not sources: tainting them would
// recount one flow once per frame on its call chain. The result is fully
// deterministic: program order drives every iteration and findings come out
// sorted by (function, line, sink, depth).
func AnalyzeProgramTaint(p *ir.Program) *InterResult {
	g := callgraph.Build(p)
	funcs := map[string]*ir.Func{}
	for _, f := range p.Funcs {
		funcs[f.Name] = f
	}

	sums := map[string]*summaryBuilder{}
	for _, comp := range g.SCCs() {
		for _, fn := range comp {
			sums[fn] = newSummaryBuilder(len(funcs[fn].Params))
		}
		// Fixpoint within the component; a singleton without self-recursion
		// converges on the first round.
		for round := 0; ; round++ {
			changed := false
			for _, fn := range comp {
				next := analyzeOrigins(funcs[fn], sums)
				if !next.equal(sums[fn]) {
					sums[fn] = next
					changed = true
				}
			}
			if !changed {
				break
			}
			if round > 4*len(comp)+64 {
				break // safety valve; the lattice is finite, so unreachable
			}
		}
	}

	res := &InterResult{Summaries: map[string]Summary{}}
	for name, sb := range sums {
		res.Summaries[name] = sb.finish(name)
	}

	roots := map[string]bool{}
	for _, r := range g.Roots() {
		roots[r] = true
	}
	if _, hasMain := funcs["main"]; hasMain {
		roots["main"] = true
	}

	type findingKey struct {
		fn   string
		sink string
		line int
	}
	best := map[findingKey]int{}
	record := func(fn string, r SinkReach) {
		k := findingKey{fn: fn, sink: r.Sink, line: r.Line}
		if d, ok := best[k]; !ok || r.Depth < d {
			best[k] = r.Depth
		}
	}
	for _, f := range p.Funcs {
		s := res.Summaries[f.Name]
		for _, r := range s.LocalSinks {
			record(f.Name, r)
		}
		if roots[f.Name] {
			for _, reaches := range s.ParamSinks {
				for _, r := range reaches {
					record(f.Name, r)
				}
			}
		}
	}

	order := map[string]int{}
	for i, f := range p.Funcs {
		order[f.Name] = i
	}
	for k, d := range best {
		res.Findings = append(res.Findings, InterFinding{Func: k.fn, Sink: k.sink, Line: k.line, Depth: d})
		if d+1 > res.MaxChain {
			res.MaxChain = d + 1
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if order[a.Func] != order[b.Func] {
			return order[a.Func] < order[b.Func]
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Sink != b.Sink {
			return a.Sink < b.Sink
		}
		return a.Depth < b.Depth
	})
	return res
}
