// Package dataflow implements live-variable analysis and dead-store
// detection over the IR, plus a taint analysis that propagates
// attacker-controlled data from sources (parameters, input functions) to
// sinks (dangerous calls).
// The paper cites precise interprocedural dataflow (Reps et al.) as one of
// the signal families worth feeding the model (§4.1).
package dataflow

import (
	"fmt"
	"sort"

	"repro/internal/ir"
)

// Def identifies one definition site: instruction Index in Block defines Var.
// Temp reports that the destination is a compiler temporary (ir.Temp), not
// a program variable.
type Def struct {
	Block *ir.Block
	Index int
	Var   string
	Temp  bool
}

// String renders "x@block2[3]".
func (d Def) String() string {
	return fmt.Sprintf("%s@%s[%d]", d.Var, d.Block.Name, d.Index)
}

// destName returns the defined variable name of an instruction, treating
// temps as variables named by Temp.String. Array stores define the array
// name (weak update).
func destName(in ir.Instr) (string, bool) {
	if st, ok := in.(*ir.ArrayStore); ok {
		return st.Array, true
	}
	d := in.Defs()
	if d == nil {
		return "", false
	}
	return d.String(), true
}

// useNames returns the variable names read by an instruction, including the
// arrays read by loads.
func useNames(in ir.Instr) []string {
	var out []string
	for _, u := range in.Uses() {
		switch v := u.(type) {
		case ir.Var:
			out = append(out, v.Name)
		case ir.Temp:
			out = append(out, v.String())
		}
	}
	if ld, ok := in.(*ir.ArrayLoad); ok {
		out = append(out, ld.Array)
	}
	return out
}

// termUses returns the names read by a terminator.
func termUses(t ir.Terminator) []string {
	if t == nil {
		return nil
	}
	var out []string
	for _, u := range t.Uses() {
		switch v := u.(type) {
		case ir.Var:
			out = append(out, v.Name)
		case ir.Temp:
			out = append(out, v.String())
		}
	}
	return out
}

func sortDefs(ds []Def) {
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Block.ID != ds[j].Block.ID {
			return ds[i].Block.ID < ds[j].Block.ID
		}
		return ds[i].Index < ds[j].Index
	})
}

// Liveness computes live-variable sets at block boundaries (backward
// may-analysis).
type Liveness struct {
	In, Out map[*ir.Block]map[string]bool
}

// LiveVariables runs the analysis to a fixpoint.
func LiveVariables(f *ir.Func) *Liveness {
	lv := &Liveness{In: map[*ir.Block]map[string]bool{}, Out: map[*ir.Block]map[string]bool{}}
	use := map[*ir.Block]map[string]bool{}
	def := map[*ir.Block]map[string]bool{}
	for _, b := range f.Blocks {
		u := map[string]bool{}
		d := map[string]bool{}
		for _, in := range b.Instrs {
			for _, name := range useNames(in) {
				if !d[name] {
					u[name] = true
				}
			}
			if name, ok := destName(in); ok {
				if _, isStore := in.(*ir.ArrayStore); !isStore {
					d[name] = true
				}
			}
		}
		for _, name := range termUses(b.Term) {
			if !d[name] {
				u[name] = true
			}
		}
		use[b] = u
		def[b] = d
		lv.In[b] = map[string]bool{}
		lv.Out[b] = map[string]bool{}
	}
	changed := true
	for changed {
		changed = false
		// Reverse order converges faster for backward analyses.
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := map[string]bool{}
			for _, s := range b.Succs() {
				for v := range lv.In[s] {
					out[v] = true
				}
			}
			in := map[string]bool{}
			for v := range use[b] {
				in[v] = true
			}
			for v := range out {
				if !def[b][v] {
					in[v] = true
				}
			}
			if !setEq(in, lv.In[b]) || !setEq(out, lv.Out[b]) {
				lv.In[b] = in
				lv.Out[b] = out
				changed = true
			}
		}
	}
	return lv
}

func setEq(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// DeadStores returns definitions whose value is never used: the defined
// variable is not live immediately after the definition. Array stores are
// never reported (weak updates may alias).
func DeadStores(f *ir.Func) []Def {
	lv := LiveVariables(f)
	var out []Def
	for _, b := range f.Blocks {
		// Walk backward through the block maintaining liveness.
		live := map[string]bool{}
		for v := range lv.Out[b] {
			live[v] = true
		}
		for _, name := range termUses(b.Term) {
			live[name] = true
		}
		type rec struct {
			def  Def
			dead bool
		}
		var recs []rec
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if name, ok := destName(in); ok {
				if _, isStore := in.(*ir.ArrayStore); !isStore {
					_, temp := in.Defs().(ir.Temp)
					recs = append(recs, rec{def: Def{Block: b, Index: i, Var: name, Temp: temp}, dead: !live[name]})
					delete(live, name)
				}
			}
			for _, name := range useNames(in) {
				live[name] = true
			}
		}
		for _, rc := range recs {
			if rc.dead {
				out = append(out, rc.def)
			}
		}
	}
	sortDefs(out)
	return out
}
