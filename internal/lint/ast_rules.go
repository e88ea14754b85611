package lint

import (
	"repro/internal/dataflow"
	"repro/internal/ir"
	"repro/internal/minic"
)

// checkAST runs the rules that need a MiniC parse, over the file's AST and
// its lowered program: dead stores (via the dataflow substrate), missing
// returns (via the IR), infinite loops, and division-by-unvalidated-value. Like the bug
// finders the paper surveys, several of these are deliberately noisy; the
// model is what separates the wheat from the chaff.
func checkAST(path string, ast *minic.Program, prog *ir.Program, rep *Report) {
	for i, f := range prog.Funcs {
		for _, d := range dataflow.DeadStores(f) {
			if d.Var == "" || d.Temp {
				continue
			}
			line := 0
			if d.Index >= 0 && d.Index < len(d.Block.Instrs) {
				line = d.Block.Instrs[d.Index].SrcLine()
			}
			rep.add(RuleDeadStore, path, line, "value assigned to "+d.Var+" is never used")
		}
		// Missing return: an implicit (value-less) return in MiniC, where
		// every function returns int. It is reported at the block's last
		// instruction, or at the function's declaration when the block
		// holds none (Lower makes one function per declaration, in order).
		for _, b := range f.Blocks {
			if r, ok := b.Term.(*ir.Ret); ok && r.Value == nil {
				line := ast.Funcs[i].Line
				if n := len(b.Instrs); n > 0 {
					line = b.Instrs[n-1].SrcLine()
				}
				rep.add(RuleMissingReturn, path, line, "control reaches end of function "+f.Name+" without a return value")
			}
		}
	}
	for _, fn := range ast.Funcs {
		walkStmts(fn.Body, func(s minic.Stmt) {
			switch x := s.(type) {
			case *minic.WhileStmt:
				if lit, ok := x.Cond.(*minic.NumLit); ok && lit.Value != 0 && !containsBreak(x.Body) {
					rep.add(RuleInfiniteLoop, path, x.Line, "while("+minic.ExprString(x.Cond)+") without break")
				}
			}
		})
		walkExprs(fn.Body, func(e minic.Expr) {
			if b, ok := e.(*minic.BinaryExpr); ok && (b.Op == "/" || b.Op == "%") {
				switch b.R.(type) {
				case *minic.NumLit:
					// literal divisor: fine (zero literals rejected upstream
					// would be a separate rule; keep quiet)
				default:
					rep.add(RuleDivByZeroRisk, path, b.Line, "division by unvalidated value "+minic.ExprString(b.R))
				}
			}
		})
	}
}

// walkStmts visits every statement in a block, recursively.
func walkStmts(b *minic.Block, visit func(minic.Stmt)) {
	if b == nil {
		return
	}
	for _, s := range b.Stmts {
		visit(s)
		switch x := s.(type) {
		case *minic.Block:
			walkStmts(x, visit)
		case *minic.IfStmt:
			walkStmts(x.Then, visit)
			walkStmts(x.Else, visit)
		case *minic.WhileStmt:
			walkStmts(x.Body, visit)
		case *minic.ForStmt:
			if x.Init != nil {
				visit(x.Init)
			}
			if x.Post != nil {
				visit(x.Post)
			}
			walkStmts(x.Body, visit)
		}
	}
}

// walkExprs visits every expression in a block, recursively.
func walkExprs(b *minic.Block, visit func(minic.Expr)) {
	walkStmts(b, func(s minic.Stmt) {
		switch x := s.(type) {
		case *minic.DeclStmt:
			visitExpr(x.Init, visit)
		case *minic.AssignStmt:
			visitExpr(x.Target, visit)
			visitExpr(x.Value, visit)
		case *minic.IfStmt:
			visitExpr(x.Cond, visit)
		case *minic.WhileStmt:
			visitExpr(x.Cond, visit)
		case *minic.ForStmt:
			visitExpr(x.Cond, visit)
		case *minic.ReturnStmt:
			visitExpr(x.Value, visit)
		case *minic.ExprStmt:
			visitExpr(x.X, visit)
		}
	})
}

func visitExpr(e minic.Expr, visit func(minic.Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *minic.BinaryExpr:
		visitExpr(x.L, visit)
		visitExpr(x.R, visit)
	case *minic.UnaryExpr:
		visitExpr(x.X, visit)
	case *minic.IndexExpr:
		visitExpr(x.Index, visit)
	case *minic.CallExpr:
		for _, a := range x.Args {
			visitExpr(a, visit)
		}
	}
}

// containsBreak reports whether the block contains a break at its own loop
// level (breaks inside nested loops do not count).
func containsBreak(b *minic.Block) bool {
	if b == nil {
		return false
	}
	for _, s := range b.Stmts {
		switch x := s.(type) {
		case *minic.BreakStmt:
			return true
		case *minic.Block:
			if containsBreak(x) {
				return true
			}
		case *minic.IfStmt:
			if containsBreak(x.Then) || containsBreak(x.Else) {
				return true
			}
		case *minic.ReturnStmt:
			return true // a return exits the loop too
		}
	}
	return false
}
