// Package callgraph builds the static call graph of a lowered program and
// computes the interprocedural shape features §4.1 sketches: "data flow
// analysis can determine numbers of expressions or functions influencing
// the execution of other parts of the code; control flow analysis can
// determine numbers of calling and returning targets".
package callgraph

import (
	"sort"

	"repro/internal/ir"
)

// Graph is a static call graph. Nodes are function names; external callees
// (no definition in the program) are tracked separately.
type Graph struct {
	// Callees maps a defined function to the defined functions it calls
	// (deduplicated, sorted).
	Callees map[string][]string
	// Callers is the reverse relation.
	Callers map[string][]string
	// External maps a defined function to the undefined (library) functions
	// it calls.
	External map[string][]string
	// CallSites counts total call instructions per function.
	CallSites map[string]int
	order     []string
}

// Build constructs the graph from a lowered program.
func Build(p *ir.Program) *Graph {
	defined := map[string]bool{}
	for _, f := range p.Funcs {
		defined[f.Name] = true
	}
	g := &Graph{
		Callees:   map[string][]string{},
		Callers:   map[string][]string{},
		External:  map[string][]string{},
		CallSites: map[string]int{},
	}
	for _, f := range p.Funcs {
		g.order = append(g.order, f.Name)
		callees := map[string]bool{}
		external := map[string]bool{}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				call, ok := in.(*ir.Call)
				if !ok {
					continue
				}
				g.CallSites[f.Name]++
				if defined[call.Name] {
					callees[call.Name] = true
				} else {
					external[call.Name] = true
				}
			}
		}
		g.Callees[f.Name] = sortedKeys(callees)
		g.External[f.Name] = sortedKeys(external)
	}
	for caller, callees := range g.Callees {
		for _, callee := range callees {
			g.Callers[callee] = append(g.Callers[callee], caller)
		}
	}
	for k := range g.Callers {
		sort.Strings(g.Callers[k])
	}
	return g
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Functions returns the defined functions in program order.
func (g *Graph) Functions() []string {
	return append([]string(nil), g.order...)
}

// FanOut returns the number of distinct defined callees of fn.
func (g *Graph) FanOut(fn string) int { return len(g.Callees[fn]) }

// FanIn returns the number of distinct defined callers of fn.
func (g *Graph) FanIn(fn string) int { return len(g.Callers[fn]) }

// MaxFanOut returns the largest fan-out in the graph.
func (g *Graph) MaxFanOut() int {
	max := 0
	for _, fn := range g.order {
		if n := g.FanOut(fn); n > max {
			max = n
		}
	}
	return max
}

// Depth returns the longest acyclic call chain length (number of nodes on
// the longest path). Cycles contribute their nodes once.
func (g *Graph) Depth() int {
	memo := map[string]int{}
	visiting := map[string]bool{}
	var depth func(string) int
	depth = func(fn string) int {
		if d, ok := memo[fn]; ok {
			return d
		}
		if visiting[fn] {
			return 0 // break cycles
		}
		visiting[fn] = true
		best := 0
		for _, c := range g.Callees[fn] {
			if d := depth(c); d > best {
				best = d
			}
		}
		visiting[fn] = false
		memo[fn] = best + 1
		return best + 1
	}
	max := 0
	for _, fn := range g.order {
		if d := depth(fn); d > max {
			max = d
		}
	}
	return max
}

// SCCs returns the strongly connected components of the call graph in
// bottom-up (callee-before-caller) order: every function a component calls
// outside itself belongs to an earlier component. Within a component,
// functions appear in program order. Singleton components are returned for
// non-recursive functions, so the concatenation of all components is a
// permutation of Functions(). This is the processing order for summary-based
// interprocedural analyses: by the time a component is visited, every callee
// summary outside the component is final, and only cycles need a fixpoint.
func (g *Graph) SCCs() [][]string {
	// Iterative Tarjan. The visit order (program order, callees in sorted
	// order) is deterministic, so the component order is too.
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	var comps [][]string

	type frame struct {
		fn string
		ci int // next callee index to explore
	}
	for _, root := range g.order {
		if _, seen := index[root]; seen {
			continue
		}
		work := []frame{{fn: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			if fr.ci == 0 {
				index[fr.fn] = next
				low[fr.fn] = next
				next++
				stack = append(stack, fr.fn)
				onStack[fr.fn] = true
			}
			advanced := false
			callees := g.Callees[fr.fn]
			for fr.ci < len(callees) {
				c := callees[fr.ci]
				fr.ci++
				if _, seen := index[c]; !seen {
					work = append(work, frame{fn: c})
					advanced = true
					break
				}
				if onStack[c] && low[c] < low[fr.fn] {
					low[fr.fn] = low[c]
				}
			}
			if advanced {
				continue
			}
			// fr is exhausted: pop it, fold its lowlink into the parent.
			fn := fr.fn
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := &work[len(work)-1]
				if low[fn] < low[parent.fn] {
					low[parent.fn] = low[fn]
				}
			}
			if low[fn] == index[fn] {
				var comp []string
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					comp = append(comp, top)
					if top == fn {
						break
					}
				}
				comps = append(comps, comp)
			}
		}
	}
	// Within a component, restore program order for determinism that does
	// not depend on Tarjan's pop order.
	pos := map[string]int{}
	for i, fn := range g.order {
		pos[fn] = i
	}
	for _, comp := range comps {
		sort.Slice(comp, func(i, j int) bool { return pos[comp[i]] < pos[comp[j]] })
	}
	return comps
}

// Roots returns defined functions nobody defined calls (entry candidates).
func (g *Graph) Roots() []string {
	var out []string
	for _, fn := range g.order {
		if g.FanIn(fn) == 0 {
			out = append(out, fn)
		}
	}
	return out
}
