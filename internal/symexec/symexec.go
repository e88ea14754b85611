package symexec

import (
	"math"
	"sort"

	"repro/internal/ir"
)

// Explore's budgets: it stops after maxPaths paths and truncates a path
// after maxSteps instructions.
const (
	maxPaths = 4096
	maxSteps = 10000
)

// DefaultLoopBound is the testbed's loop bound: Explore visits any block
// at most that many times along one path. Ablation A4 varies it.
const DefaultLoopBound = 3

// inputRange is the interval of every input (parameters and results of
// input sources, ir.IsInputSource): the byte range ir declares. Nothing
// assigns it: it is a constant Go cannot declare as one.
var inputRange = Interval{Lo: ir.InputMin, Hi: ir.InputMax}

// PathRecord describes one completed feasible path.
type PathRecord struct {
	Blocks []string // block names in execution order
	Models float64  // input assignments compatible with the path constraints
	Return Interval // interval of the returned value (empty for void return)
}

// Result summarizes exploring one function.
type Result struct {
	FeasiblePaths   int
	TruncatedPaths  int // hit a step/loop bound before returning
	InfeasiblePaths int // pruned by constraint contradiction
	// ModelCount is the total count over feasible paths; the interval
	// abstraction makes this an over-approximation.
	ModelCount float64
	// InputSpace is the volume of the declared input space.
	InputSpace float64
	// BlocksCovered / BlocksTotal measure path coverage.
	BlocksCovered, BlocksTotal int
	// DivByZeroRisks counts divisions whose divisor interval contains 0.
	DivByZeroRisks int
	Paths          []PathRecord
}

// state is one symbolic machine state.
type state struct {
	env    map[string]Interval
	ver    map[string]int // write version per variable
	arrays map[string]Interval
	// inputs tracks, for each input dimension, its refined interval while
	// the variable still holds the input value.
	inputs   map[string]Interval
	inputVer map[string]int
	// copyOf links a variable to the variable it was copied from, so branch
	// refinements propagate back to input dimensions through copies
	// ("data = $0" where $0 was read_input()'s result).
	copyOf map[string]copyLink
	visits map[*ir.Block]int
	steps  int
	trail  []string
}

type copyLink struct {
	root    string
	rootVer int
}

func (s *state) clone() *state {
	c := &state{
		env:      make(map[string]Interval, len(s.env)),
		ver:      make(map[string]int, len(s.ver)),
		arrays:   make(map[string]Interval, len(s.arrays)),
		inputs:   make(map[string]Interval, len(s.inputs)),
		inputVer: make(map[string]int, len(s.inputVer)),
		copyOf:   make(map[string]copyLink, len(s.copyOf)),
		visits:   make(map[*ir.Block]int, len(s.visits)),
		steps:    s.steps,
		trail:    append([]string(nil), s.trail...),
	}
	for k, v := range s.copyOf {
		c.copyOf[k] = v
	}
	for k, v := range s.env {
		c.env[k] = v
	}
	for k, v := range s.ver {
		c.ver[k] = v
	}
	for k, v := range s.arrays {
		c.arrays[k] = v
	}
	for k, v := range s.inputs {
		c.inputs[k] = v
	}
	for k, v := range s.inputVer {
		c.inputVer[k] = v
	}
	for k, v := range s.visits {
		c.visits[k] = v
	}
	return c
}

func (s *state) write(name string, iv Interval) {
	s.env[name] = iv
	s.ver[name]++
	delete(s.copyOf, name)
}

// linkCopy records that dst currently holds the same value as src.
func (s *state) linkCopy(dst, src string) {
	root, rootVer := src, s.ver[src]
	if link, ok := s.copyOf[src]; ok && s.ver[link.root] == link.rootVer {
		root, rootVer = link.root, link.rootVer
	}
	s.copyOf[dst] = copyLink{root: root, rootVer: rootVer}
}

// refineVar narrows a variable's interval; if the variable still holds its
// input value, the input dimension narrows with it, and the refinement
// propagates through valid copy links.
func (s *state) refineVar(name string, iv Interval) {
	cur, ok := s.env[name]
	if !ok {
		cur = Top()
	}
	next := cur.Intersect(iv)
	s.env[name] = next
	if inVer, isInput := s.inputVer[name]; isInput && inVer == s.ver[name] {
		s.inputs[name] = next
	}
	if link, ok := s.copyOf[name]; ok && s.ver[link.root] == link.rootVer && link.root != name {
		s.refineVar(link.root, iv)
	}
}

func (s *state) markInput(name string, iv Interval) {
	s.env[name] = iv
	s.inputs[name] = iv
	s.inputVer[name] = s.ver[name]
	delete(s.copyOf, name)
}

// modelCount multiplies the refined input widths, saturating.
func (s *state) modelCount() float64 {
	total := 1.0
	for _, iv := range s.inputs {
		total *= iv.Width()
		if total > 1e30 {
			return 1e30
		}
	}
	return total
}

// executor carries shared exploration context.
type executor struct {
	loopBound int
	f         *ir.Func
	defOf     map[string]ir.Instr // temp name -> defining instruction
	res       *Result
	covered   map[*ir.Block]bool
	stopped   bool
}

// Explore symbolically executes f, visiting any block at most loopBound
// times along one path.
func Explore(f *ir.Func, loopBound int) *Result {
	ex := &executor{
		loopBound: loopBound,
		f:         f,
		defOf:     map[string]ir.Instr{},
		res:       &Result{BlocksTotal: len(f.Blocks)},
		covered:   map[*ir.Block]bool{},
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Defs(); d != nil {
				if t, ok := d.(ir.Temp); ok {
					ex.defOf[t.String()] = in
				}
			}
		}
	}
	st := &state{
		env:      map[string]Interval{},
		ver:      map[string]int{},
		arrays:   map[string]Interval{},
		inputs:   map[string]Interval{},
		inputVer: map[string]int{},
		copyOf:   map[string]copyLink{},
		visits:   map[*ir.Block]int{},
	}
	inputSpace := 1.0
	for _, p := range f.Params {
		st.markInput(p, inputRange)
		inputSpace *= inputRange.Width()
	}
	ex.res.InputSpace = inputSpace
	ex.run(f.Entry(), st)
	ex.res.BlocksCovered = len(ex.covered)
	sort.Slice(ex.res.Paths, func(i, j int) bool {
		return ex.res.Paths[i].Models > ex.res.Paths[j].Models
	})
	return ex.res
}

func (ex *executor) pathBudgetLeft() bool {
	return ex.res.FeasiblePaths+ex.res.TruncatedPaths+ex.res.InfeasiblePaths < maxPaths
}

func (ex *executor) run(b *ir.Block, st *state) {
	if ex.stopped {
		return
	}
	if !ex.pathBudgetLeft() {
		ex.stopped = true
		return
	}
	st.visits[b]++
	if st.visits[b] > ex.loopBound {
		ex.res.TruncatedPaths++
		return
	}
	ex.covered[b] = true
	st.trail = append(st.trail, b.Name)

	for _, in := range b.Instrs {
		st.steps++
		if st.steps > maxSteps {
			ex.res.TruncatedPaths++
			return
		}
		ex.step(in, st)
	}

	switch term := b.Term.(type) {
	case *ir.Ret:
		ex.res.FeasiblePaths++
		rec := PathRecord{
			Blocks: append([]string(nil), st.trail...),
			Models: st.modelCount(),
			Return: Interval{Lo: 1, Hi: 0},
		}
		if term.Value != nil {
			rec.Return = ex.eval(term.Value, st)
		}
		ex.res.ModelCount = math.Min(ex.res.ModelCount+rec.Models, 1e30)
		if len(ex.res.Paths) < 1024 {
			ex.res.Paths = append(ex.res.Paths, rec)
		}
	case *ir.Jump:
		ex.run(term.Target, st)
	case *ir.Branch:
		cond := ex.eval(term.Cond, st)
		switch TruthOf(cond) {
		case AlwaysTrue:
			ex.res.InfeasiblePaths++ // the false edge is statically dead here
			ex.run(term.True, st)
		case AlwaysFalse:
			ex.res.InfeasiblePaths++ // the true edge is statically dead here
			ex.run(term.False, st)
		default:
			trueSt := st.clone()
			if ex.refine(term.Cond, true, trueSt) {
				ex.run(term.True, trueSt)
			} else {
				ex.res.InfeasiblePaths++
			}
			if ex.refine(term.Cond, false, st) {
				ex.run(term.False, st)
			} else {
				ex.res.InfeasiblePaths++
			}
		}
	case nil:
		ex.res.FeasiblePaths++
	}
}

func (ex *executor) step(in ir.Instr, st *state) {
	switch x := in.(type) {
	case *ir.Assign:
		st.write(x.Dst.String(), ex.eval(x.Src, st))
		if srcName, ok := varName(x.Src); ok {
			st.linkCopy(x.Dst.String(), srcName)
		}
	case *ir.BinOp:
		l, r := ex.eval(x.L, st), ex.eval(x.R, st)
		var out Interval
		switch x.Op {
		case "+":
			out = l.Add(r)
		case "-":
			out = l.Sub(r)
		case "*":
			out = l.Mul(r)
		case "/":
			if r.Contains(0) {
				ex.res.DivByZeroRisks++
			}
			out = l.Div(r)
		case "%":
			if r.Contains(0) {
				ex.res.DivByZeroRisks++
			}
			out = l.Mod(r)
		case "<", "<=", ">", ">=", "==", "!=":
			out = Compare(x.Op, l, r)
		case "&&":
			out = logicalAnd(l, r)
		case "||":
			out = logicalOr(l, r)
		default:
			out = Top()
		}
		st.write(x.Dst.String(), out)
	case *ir.UnOp:
		v := ex.eval(x.X, st)
		switch x.Op {
		case "-":
			st.write(x.Dst.String(), v.Neg())
		case "!":
			switch TruthOf(v) {
			case AlwaysTrue:
				st.write(x.Dst.String(), Single(0))
			case AlwaysFalse:
				st.write(x.Dst.String(), Single(1))
			default:
				st.write(x.Dst.String(), Interval{Lo: 0, Hi: 1})
			}
		default:
			st.write(x.Dst.String(), Top())
		}
	case *ir.Call:
		if x.Dst != nil {
			name := x.Dst.String()
			if ir.IsInputSource(x.Name) {
				st.ver[name]++
				st.markInput(name, inputRange)
				ex.res.InputSpace = math.Min(ex.res.InputSpace*inputRange.Width(), 1e30)
			} else {
				st.write(name, Top())
			}
		}
	case *ir.ArrayLoad:
		iv, ok := st.arrays[x.Array]
		if !ok {
			iv = Top()
		}
		st.write(x.Dst.String(), iv)
	case *ir.ArrayStore:
		cur, ok := st.arrays[x.Array]
		v := ex.eval(x.Src, st)
		if !ok {
			st.arrays[x.Array] = v
		} else {
			st.arrays[x.Array] = cur.Join(v)
		}
	}
}

func (ex *executor) eval(v ir.Value, st *state) Interval {
	switch x := v.(type) {
	case ir.Const:
		return Single(x.V)
	case ir.Var:
		if iv, ok := st.env[x.Name]; ok {
			return iv
		}
		return Top()
	case ir.Temp:
		if iv, ok := st.env[x.String()]; ok {
			return iv
		}
		return Top()
	}
	return Top()
}

func logicalAnd(l, r Interval) Interval {
	lt, rt := TruthOf(l), TruthOf(r)
	if lt == AlwaysFalse || rt == AlwaysFalse {
		return Single(0)
	}
	if lt == AlwaysTrue && rt == AlwaysTrue {
		return Single(1)
	}
	return Interval{Lo: 0, Hi: 1}
}

func logicalOr(l, r Interval) Interval {
	lt, rt := TruthOf(l), TruthOf(r)
	if lt == AlwaysTrue || rt == AlwaysTrue {
		return Single(1)
	}
	if lt == AlwaysFalse && rt == AlwaysFalse {
		return Single(0)
	}
	return Interval{Lo: 0, Hi: 1}
}

// refine narrows st so that cond has the given truth value, returning false
// when the constraint is unsatisfiable in the interval domain.
func (ex *executor) refine(cond ir.Value, want bool, st *state) bool {
	switch x := cond.(type) {
	case ir.Const:
		return (x.V != 0) == want
	case ir.Var:
		return ex.refineNonzero(x.Name, want, st)
	case ir.Temp:
		def, ok := ex.defOf[x.String()]
		if !ok {
			return ex.refineNonzero(x.String(), want, st)
		}
		switch d := def.(type) {
		case *ir.BinOp:
			switch d.Op {
			case "<", "<=", ">", ">=", "==", "!=":
				return ex.refineCompare(d, want, st)
			case "&&":
				if want {
					return ex.refine(d.L, true, st) && ex.refine(d.R, true, st)
				}
				// !(a && b): cannot refine without forking; check feasibility.
				return TruthOf(logicalAnd(ex.eval(d.L, st), ex.eval(d.R, st))) != AlwaysTrue
			case "||":
				if !want {
					return ex.refine(d.L, false, st) && ex.refine(d.R, false, st)
				}
				return TruthOf(logicalOr(ex.eval(d.L, st), ex.eval(d.R, st))) != AlwaysFalse
			}
		case *ir.UnOp:
			if d.Op == "!" {
				return ex.refine(d.X, !want, st)
			}
		}
		return ex.refineNonzero(x.String(), want, st)
	}
	return true
}

// refineNonzero applies "v != 0" or "v == 0" to a named value.
func (ex *executor) refineNonzero(name string, want bool, st *state) bool {
	cur, ok := st.env[name]
	if !ok {
		cur = Top()
	}
	if !want {
		if !cur.Contains(0) {
			return false
		}
		st.refineVar(name, Single(0))
		return true
	}
	if cur.Lo == 0 && cur.Hi == 0 {
		return false
	}
	// Trim a zero endpoint; interior zeros cannot be excised by one interval.
	if cur.Lo == 0 {
		st.refineVar(name, Interval{Lo: 1, Hi: cur.Hi})
	} else if cur.Hi == 0 {
		st.refineVar(name, Interval{Lo: cur.Lo, Hi: -1})
	}
	return true
}

// refineCompare narrows the operands of a comparison BinOp.
func (ex *executor) refineCompare(d *ir.BinOp, want bool, st *state) bool {
	op := d.Op
	if !want {
		op = negateOp(op)
	}
	l, r := ex.eval(d.L, st), ex.eval(d.R, st)
	if TruthOf(Compare(op, l, r)) == AlwaysFalse {
		return false
	}
	lName, lIsVar := varName(d.L)
	rName, rIsVar := varName(d.R)
	var newL, newR Interval
	switch op {
	case "<":
		newL = Interval{Lo: l.Lo, Hi: minI(l.Hi, r.Hi-1)}
		newR = Interval{Lo: maxI(r.Lo, l.Lo+1), Hi: r.Hi}
	case "<=":
		newL = Interval{Lo: l.Lo, Hi: minI(l.Hi, r.Hi)}
		newR = Interval{Lo: maxI(r.Lo, l.Lo), Hi: r.Hi}
	case ">":
		newL = Interval{Lo: maxI(l.Lo, r.Lo+1), Hi: l.Hi}
		newR = Interval{Lo: r.Lo, Hi: minI(r.Hi, l.Hi-1)}
	case ">=":
		newL = Interval{Lo: maxI(l.Lo, r.Lo), Hi: l.Hi}
		newR = Interval{Lo: r.Lo, Hi: minI(r.Hi, l.Hi)}
	case "==":
		both := l.Intersect(r)
		newL, newR = both, both
	case "!=":
		newL, newR = l, r
		// Only refine when the other side is a singleton endpoint.
		if r.Lo == r.Hi {
			if l.Lo == r.Lo {
				newL = Interval{Lo: l.Lo + 1, Hi: l.Hi}
			} else if l.Hi == r.Lo {
				newL = Interval{Lo: l.Lo, Hi: l.Hi - 1}
			}
		}
		if l.Lo == l.Hi {
			if r.Lo == l.Lo {
				newR = Interval{Lo: r.Lo + 1, Hi: r.Hi}
			} else if r.Hi == l.Lo {
				newR = Interval{Lo: r.Lo, Hi: r.Hi - 1}
			}
		}
	}
	if newL.Empty() || newR.Empty() {
		return false
	}
	if lIsVar {
		st.refineVar(lName, newL)
	}
	if rIsVar {
		st.refineVar(rName, newR)
	}
	return true
}

func negateOp(op string) string {
	switch op {
	case "<":
		return ">="
	case "<=":
		return ">"
	case ">":
		return "<="
	case ">=":
		return "<"
	case "==":
		return "!="
	case "!=":
		return "=="
	}
	return op
}

func varName(v ir.Value) (string, bool) {
	switch x := v.(type) {
	case ir.Var:
		return x.Name, true
	case ir.Temp:
		return x.String(), true
	}
	return "", false
}
