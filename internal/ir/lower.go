package ir

import (
	"fmt"

	"repro/internal/minic"
)

// Lower converts a checked MiniC program into IR. Shadowed variables are
// renamed so every IR variable name is unique within its function.
//
// Deviation from C semantics: '&&' and '||' are lowered eagerly (both sides
// evaluate) rather than with short-circuit control flow. Conditions in the
// analyzed subset are side-effect free, so the analyses are unaffected; the
// symbolic executor interprets the eager operators boolean-correctly.
func Lower(prog *minic.Program) (*Program, error) {
	out := &Program{}
	for _, g := range prog.Globals {
		out.Globals = append(out.Globals, g.Name)
	}
	for _, fd := range prog.Funcs {
		f, err := lowerFunc(fd, prog.Globals)
		if err != nil {
			return nil, err
		}
		out.Funcs = append(out.Funcs, f)
	}
	return out, nil
}

// Parse parses src as MiniC and lowers it to IR: the one front end the
// per-file analyses share, so a file is parsed once however many of them
// read it. ast is nil when src does not parse, and prog is nil when it
// parses but does not lower; err is the parser's or the lowerer's error,
// so ast tells the two apart. It recovers nothing: a panic in either stage
// reaches the caller's containment.
func Parse(src string) (ast *minic.Program, prog *Program, err error) {
	if ast, err = minic.Parse(src); err == nil {
		prog, err = Lower(ast)
	}
	return ast, prog, err
}

// MustLowerSource parses and lowers MiniC source, panicking on error; a
// convenience for tests and generators working with known-good source.
func MustLowerSource(src string) *Program {
	_, p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type lowerer struct {
	f      *Func
	cur    *Block
	nblock int
	// scopes maps source names to unique IR names.
	scopes  []map[string]string
	renames map[string]int
	// loop stack for break/continue targets.
	loops []loopCtx
}

type loopCtx struct {
	continueTo *Block
	breakTo    *Block
}

func lowerFunc(fd *minic.FuncDecl, globals []*minic.DeclStmt) (*Func, error) {
	lw := &lowerer{
		f:       &Func{Name: fd.Name},
		renames: map[string]int{},
	}
	// Global scope: globals map to themselves.
	gscope := map[string]string{}
	for _, g := range globals {
		gscope[g.Name] = g.Name
	}
	lw.scopes = append(lw.scopes, gscope)
	// Function scope with params.
	fscope := map[string]string{}
	for _, p := range fd.Params {
		fscope[p] = p
		lw.f.Params = append(lw.f.Params, p)
	}
	lw.scopes = append(lw.scopes, fscope)

	entry := lw.newBlock("entry")
	lw.cur = entry
	if err := lw.lowerBlock(fd.Body); err != nil {
		return nil, err
	}
	// Fall off the end: implicit "ret".
	if lw.cur.Term == nil {
		lw.cur.Term = &Ret{}
	}
	lw.f.removeUnreachable()
	return lw.f, nil
}

func (lw *lowerer) newBlock(kind string) *Block {
	b := &Block{ID: lw.nblock, Name: fmt.Sprintf("%s%d", kind, lw.nblock)}
	lw.nblock++
	lw.f.Blocks = append(lw.f.Blocks, b)
	return b
}

func (lw *lowerer) newTemp() Temp {
	t := Temp{ID: lw.f.NTemps}
	lw.f.NTemps++
	return t
}

func (lw *lowerer) emit(in Instr) {
	if lw.cur.Term != nil {
		// Unreachable code after return/break: drop it.
		return
	}
	lw.cur.Instrs = append(lw.cur.Instrs, in)
}

func (lw *lowerer) terminate(t Terminator) {
	if lw.cur.Term == nil {
		lw.cur.Term = t
	}
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]string{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

// declare introduces name in the innermost scope, renaming shadows.
func (lw *lowerer) declare(name string) string {
	unique := name
	if n, seen := lw.renames[name]; seen {
		unique = fmt.Sprintf("%s.%d", name, n)
	}
	lw.renames[name]++
	lw.scopes[len(lw.scopes)-1][name] = unique
	return unique
}

// resolve maps a source name to its IR name.
func (lw *lowerer) resolve(name string) string {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if u, ok := lw.scopes[i][name]; ok {
			return u
		}
	}
	// The checker guarantees declarations, so this is unreachable for valid
	// programs; map to itself for robustness.
	return name
}

func (lw *lowerer) lowerBlock(b *minic.Block) error {
	lw.pushScope()
	defer lw.popScope()
	for _, st := range b.Stmts {
		if err := lw.lowerStmt(st); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) lowerStmt(st minic.Stmt) error {
	switch s := st.(type) {
	case *minic.Block:
		return lw.lowerBlock(s)

	case *minic.DeclStmt:
		name := lw.declare(s.Name)
		if s.Size > 0 {
			// Arrays need no explicit allocation in the IR; stores/loads
			// reference them by name.
			return nil
		}
		var init Value = Const{V: 0}
		if s.Init != nil {
			v, err := lw.lowerExpr(s.Init)
			if err != nil {
				return err
			}
			init = v
		}
		lw.emit(&Assign{Dst: Var{Name: name}, Src: init, Line: s.Line})
		return nil

	case *minic.AssignStmt:
		val, err := lw.lowerExpr(s.Value)
		if err != nil {
			return err
		}
		switch target := s.Target.(type) {
		case *minic.VarRef:
			lw.emit(&Assign{Dst: Var{Name: lw.resolve(target.Name)}, Src: val, Line: s.Line})
		case *minic.IndexExpr:
			idx, err := lw.lowerExpr(target.Index)
			if err != nil {
				return err
			}
			lw.emit(&ArrayStore{Array: lw.resolve(target.Name), Index: idx, Src: val, Line: s.Line})
		default:
			return fmt.Errorf("ir: bad assignment target %T", s.Target)
		}
		return nil

	case *minic.IfStmt:
		cond, err := lw.lowerExpr(s.Cond)
		if err != nil {
			return err
		}
		thenB := lw.newBlock("then")
		joinB := lw.newBlock("join")
		elseB := joinB
		if s.Else != nil {
			elseB = lw.newBlock("else")
		}
		lw.terminate(&Branch{Cond: cond, True: thenB, False: elseB})
		lw.cur = thenB
		if err := lw.lowerBlock(s.Then); err != nil {
			return err
		}
		lw.terminate(&Jump{Target: joinB})
		if s.Else != nil {
			lw.cur = elseB
			if err := lw.lowerBlock(s.Else); err != nil {
				return err
			}
			lw.terminate(&Jump{Target: joinB})
		}
		lw.cur = joinB
		return nil

	case *minic.WhileStmt:
		condB := lw.newBlock("loopcond")
		bodyB := lw.newBlock("loopbody")
		exitB := lw.newBlock("loopexit")
		lw.terminate(&Jump{Target: condB})
		lw.cur = condB
		cond, err := lw.lowerExpr(s.Cond)
		if err != nil {
			return err
		}
		lw.terminate(&Branch{Cond: cond, True: bodyB, False: exitB})
		lw.loops = append(lw.loops, loopCtx{continueTo: condB, breakTo: exitB})
		lw.cur = bodyB
		if err := lw.lowerBlock(s.Body); err != nil {
			return err
		}
		lw.terminate(&Jump{Target: condB})
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.cur = exitB
		return nil

	case *minic.ForStmt:
		lw.pushScope() // for-init scope
		defer lw.popScope()
		if s.Init != nil {
			if err := lw.lowerStmt(s.Init); err != nil {
				return err
			}
		}
		condB := lw.newBlock("forcond")
		bodyB := lw.newBlock("forbody")
		postB := lw.newBlock("forpost")
		exitB := lw.newBlock("forexit")
		lw.terminate(&Jump{Target: condB})
		lw.cur = condB
		if s.Cond != nil {
			cond, err := lw.lowerExpr(s.Cond)
			if err != nil {
				return err
			}
			lw.terminate(&Branch{Cond: cond, True: bodyB, False: exitB})
		} else {
			lw.terminate(&Jump{Target: bodyB})
		}
		lw.loops = append(lw.loops, loopCtx{continueTo: postB, breakTo: exitB})
		lw.cur = bodyB
		if err := lw.lowerBlock(s.Body); err != nil {
			return err
		}
		lw.terminate(&Jump{Target: postB})
		lw.loops = lw.loops[:len(lw.loops)-1]
		lw.cur = postB
		if s.Post != nil {
			if err := lw.lowerStmt(s.Post); err != nil {
				return err
			}
		}
		lw.terminate(&Jump{Target: condB})
		lw.cur = exitB
		return nil

	case *minic.ReturnStmt:
		var v Value
		if s.Value != nil {
			val, err := lw.lowerExpr(s.Value)
			if err != nil {
				return err
			}
			v = val
		}
		lw.terminate(&Ret{Value: v})
		// Subsequent statements in this block are dead; give them a block so
		// lowering can continue, then prune it.
		lw.cur = lw.newBlock("dead")
		return nil

	case *minic.ExprStmt:
		call, ok := s.X.(*minic.CallExpr)
		if !ok {
			return fmt.Errorf("ir: expression statement is not a call")
		}
		args, err := lw.lowerArgs(call.Args)
		if err != nil {
			return err
		}
		lw.emit(&Call{Dst: nil, Name: call.Name, Args: args, Line: s.Line})
		return nil

	case *minic.BreakStmt:
		if len(lw.loops) == 0 {
			return fmt.Errorf("ir: break outside loop")
		}
		lw.terminate(&Jump{Target: lw.loops[len(lw.loops)-1].breakTo})
		lw.cur = lw.newBlock("dead")
		return nil

	case *minic.ContinueStmt:
		if len(lw.loops) == 0 {
			return fmt.Errorf("ir: continue outside loop")
		}
		lw.terminate(&Jump{Target: lw.loops[len(lw.loops)-1].continueTo})
		lw.cur = lw.newBlock("dead")
		return nil

	default:
		return fmt.Errorf("ir: unknown statement %T", st)
	}
}

func (lw *lowerer) lowerArgs(args []minic.Expr) ([]Value, error) {
	out := make([]Value, 0, len(args))
	for _, a := range args {
		v, err := lw.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (lw *lowerer) lowerExpr(e minic.Expr) (Value, error) {
	switch x := e.(type) {
	case *minic.NumLit:
		return Const{V: x.Value}, nil
	case *minic.VarRef:
		return Var{Name: lw.resolve(x.Name)}, nil
	case *minic.IndexExpr:
		idx, err := lw.lowerExpr(x.Index)
		if err != nil {
			return nil, err
		}
		t := lw.newTemp()
		lw.emit(&ArrayLoad{Dst: t, Array: lw.resolve(x.Name), Index: idx, Line: x.Line})
		return t, nil
	case *minic.BinaryExpr:
		l, err := lw.lowerExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := lw.lowerExpr(x.R)
		if err != nil {
			return nil, err
		}
		t := lw.newTemp()
		lw.emit(&BinOp{Dst: t, Op: x.Op, L: l, R: r, Line: x.Line})
		return t, nil
	case *minic.UnaryExpr:
		v, err := lw.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		t := lw.newTemp()
		lw.emit(&UnOp{Dst: t, Op: x.Op, X: v, Line: x.Line})
		return t, nil
	case *minic.CallExpr:
		args, err := lw.lowerArgs(x.Args)
		if err != nil {
			return nil, err
		}
		t := lw.newTemp()
		lw.emit(&Call{Dst: t, Name: x.Name, Args: args, Line: x.Line})
		return t, nil
	default:
		return nil, fmt.Errorf("ir: unknown expression %T", e)
	}
}
