// Package ir defines the basic-block intermediate representation the deep
// analyses run on, and the lowering from the MiniC AST into it. Each
// function becomes a control-flow graph of blocks; temporaries are in
// single-assignment form (each Temp is defined exactly once), while named
// program variables may be assigned repeatedly.
package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Value is an operand: a constant, a named variable, or a temporary.
type Value interface {
	isValue()
	String() string
}

// Const is an integer constant operand.
type Const struct{ V int64 }

// Var is a named program variable (scalars only; arrays are accessed through
// ArrayLoad/ArrayStore).
type Var struct{ Name string }

// Temp is a compiler temporary, defined exactly once. Its spelling, '$'
// and the ID, is also its storage key in every analysis that keys values by
// name, so it must not collide with a Var: no MiniC identifier and no
// lowering rename ("name.N") can contain '$'.
type Temp struct{ ID int }

func (Const) isValue() {}
func (Var) isValue()   {}
func (Temp) isValue()  {}

// String implementations.
func (c Const) String() string { return fmt.Sprintf("%d", c.V) }
func (v Var) String() string   { return v.Name }
func (t Temp) String() string  { return fmt.Sprintf("$%d", t.ID) }

// Dest is a value that can be written: a Var or a Temp.
type Dest interface {
	Value
	isDest()
}

func (Var) isDest()  {}
func (Temp) isDest() {}

// Instr is a non-terminator instruction.
type Instr interface {
	// Defs returns the destination, or nil for pure effects.
	Defs() Dest
	// Uses returns the operands read.
	Uses() []Value
	String() string
	// Line is the source line the instruction was lowered from.
	SrcLine() int
}

// Assign copies Src into Dst.
type Assign struct {
	Dst  Dest
	Src  Value
	Line int
}

// BinOp computes Dst = L Op R. Ops: + - * / % < <= > >= == != && ||.
type BinOp struct {
	Dst  Dest
	Op   string
	L, R Value
	Line int
}

// UnOp computes Dst = Op X. Ops: - !
type UnOp struct {
	Dst  Dest
	Op   string
	X    Value
	Line int
}

// Call invokes Name with Args; Dst may be nil for a call statement.
type Call struct {
	Dst  Dest // nil when the result is unused
	Name string
	Args []Value
	Line int
}

// InputMin and InputMax bound the input domain: every parameter and every
// input source's result is a byte, [0, 255]. The symbolic executor and the
// abstract interpreter assume that range, and the interpreter samples it.
const (
	InputMin = 0
	InputMax = 255
)

// IsInputSource reports whether a call to name reads a fresh program input:
// the calls whose results the symbolic executor, the abstract interpreter
// and the interpreter draw from their input domain. The taint engine's
// source table is wider (it adds gets, fread, recvfrom and parse_packet),
// so the two are kept apart.
func IsInputSource(name string) bool {
	switch name {
	case "read_input", "recv", "read", "getenv", "fgets", "scanf":
		return true
	}
	return false
}

// ArrayLoad reads Dst = Array[Index].
type ArrayLoad struct {
	Dst   Dest
	Array string
	Index Value
	Line  int
}

// ArrayStore writes Array[Index] = Src.
type ArrayStore struct {
	Array string
	Index Value
	Src   Value
	Line  int
}

// Defs/Uses/String/SrcLine implementations.

func (a *Assign) Defs() Dest    { return a.Dst }
func (a *Assign) Uses() []Value { return []Value{a.Src} }
func (a *Assign) SrcLine() int  { return a.Line }
func (a *Assign) String() string {
	return fmt.Sprintf("%s = %s", a.Dst, a.Src)
}

func (b *BinOp) Defs() Dest    { return b.Dst }
func (b *BinOp) Uses() []Value { return []Value{b.L, b.R} }
func (b *BinOp) SrcLine() int  { return b.Line }
func (b *BinOp) String() string {
	return fmt.Sprintf("%s = %s %s %s", b.Dst, b.L, b.Op, b.R)
}

func (u *UnOp) Defs() Dest    { return u.Dst }
func (u *UnOp) Uses() []Value { return []Value{u.X} }
func (u *UnOp) SrcLine() int  { return u.Line }
func (u *UnOp) String() string {
	return fmt.Sprintf("%s = %s%s", u.Dst, u.Op, u.X)
}

func (c *Call) Defs() Dest    { return c.Dst }
func (c *Call) Uses() []Value { return append([]Value(nil), c.Args...) }
func (c *Call) SrcLine() int  { return c.Line }
func (c *Call) String() string {
	args := make([]string, len(c.Args))
	for i, a := range c.Args {
		args[i] = a.String()
	}
	if c.Dst == nil {
		return fmt.Sprintf("call %s(%s)", c.Name, strings.Join(args, ", "))
	}
	return fmt.Sprintf("%s = call %s(%s)", c.Dst, c.Name, strings.Join(args, ", "))
}

func (l *ArrayLoad) Defs() Dest    { return l.Dst }
func (l *ArrayLoad) Uses() []Value { return []Value{l.Index} }
func (l *ArrayLoad) SrcLine() int  { return l.Line }
func (l *ArrayLoad) String() string {
	return fmt.Sprintf("%s = %s[%s]", l.Dst, l.Array, l.Index)
}

func (s *ArrayStore) Defs() Dest    { return nil }
func (s *ArrayStore) Uses() []Value { return []Value{s.Index, s.Src} }
func (s *ArrayStore) SrcLine() int  { return s.Line }
func (s *ArrayStore) String() string {
	return fmt.Sprintf("%s[%s] = %s", s.Array, s.Index, s.Src)
}

// Terminator ends a block.
type Terminator interface {
	Succs() []*Block
	Uses() []Value
	String() string
}

// Jump unconditionally transfers to Target.
type Jump struct{ Target *Block }

// Branch transfers to True when Cond != 0, else to False.
type Branch struct {
	Cond        Value
	True, False *Block
}

// Ret returns from the function; Value may be nil.
type Ret struct{ Value Value }

func (j *Jump) Succs() []*Block { return []*Block{j.Target} }
func (j *Jump) Uses() []Value   { return nil }
func (j *Jump) String() string  { return "jump " + j.Target.Name }

func (b *Branch) Succs() []*Block { return []*Block{b.True, b.False} }
func (b *Branch) Uses() []Value   { return []Value{b.Cond} }
func (b *Branch) String() string {
	return fmt.Sprintf("branch %s ? %s : %s", b.Cond, b.True.Name, b.False.Name)
}

func (r *Ret) Succs() []*Block { return nil }
func (r *Ret) Uses() []Value {
	if r.Value == nil {
		return nil
	}
	return []Value{r.Value}
}
func (r *Ret) String() string {
	if r.Value == nil {
		return "ret"
	}
	return "ret " + r.Value.String()
}

// Block is a basic block.
type Block struct {
	ID     int
	Name   string
	Instrs []Instr
	Term   Terminator
	Preds  []*Block
}

// Succs returns the successor blocks (empty for return blocks).
func (b *Block) Succs() []*Block {
	if b.Term == nil {
		return nil
	}
	return b.Term.Succs()
}

// Func is one function's CFG.
type Func struct {
	Name   string
	Params []string
	Blocks []*Block // Blocks[0] is the entry
	NTemps int
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Program is a lowered translation unit.
type Program struct {
	Funcs   []*Func
	Globals []string // names of global scalars and arrays
}

// FuncByName returns the function with the given name.
func (p *Program) FuncByName(name string) (*Func, bool) {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return nil, false
}

// computePreds fills in predecessor lists from the terminators.
func (f *Func) computePreds() {
	for _, b := range f.Blocks {
		b.Preds = nil
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// removeUnreachable drops blocks not reachable from the entry and renumbers
// the survivors, then recomputes predecessors.
func (f *Func) removeUnreachable() {
	reach := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if reach[b] {
			return
		}
		reach[b] = true
		for _, s := range b.Succs() {
			walk(s)
		}
	}
	walk(f.Entry())
	var kept []*Block
	for _, b := range f.Blocks {
		if reach[b] {
			kept = append(kept, b)
		}
	}
	for i, b := range kept {
		b.ID = i
	}
	f.Blocks = kept
	f.computePreds()
}

// String dumps the function as readable text for tests and debugging.
func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s(%s):\n", f.Name, strings.Join(f.Params, ", "))
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "%s:\n", b.Name)
		for _, in := range b.Instrs {
			fmt.Fprintf(&sb, "  %s\n", in)
		}
		if b.Term != nil {
			fmt.Fprintf(&sb, "  %s\n", b.Term)
		}
	}
	return sb.String()
}

// Vars returns every named variable referenced in the function, sorted.
func (f *Func) Vars() []string {
	seen := map[string]bool{}
	add := func(v Value) {
		if vv, ok := v.(Var); ok {
			seen[vv.Name] = true
		}
	}
	for _, p := range f.Params {
		seen[p] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if d := in.Defs(); d != nil {
				add(d)
			}
			for _, u := range in.Uses() {
				add(u)
			}
		}
		if b.Term != nil {
			for _, u := range b.Term.Uses() {
				add(u)
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}
