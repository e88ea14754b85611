package ir

import (
	"strings"
	"testing"
)

// TestInstructionSurfaces pins the Defs/Uses/SrcLine/String contract of
// every instruction and terminator type — the API the analyses are built
// on.
func TestInstructionSurfaces(t *testing.T) {
	dst := Temp{ID: 1}
	v := Var{Name: "x"}
	c := Const{V: 3}
	blk := &Block{ID: 0, Name: "b0"}
	other := &Block{ID: 1, Name: "b1"}

	cases := []struct {
		in       Instr
		wantDefs Dest
		wantUses int
		wantStr  string
		line     int
	}{
		{&Assign{Dst: dst, Src: c, Line: 4}, dst, 1, "$1 = 3", 4},
		{&BinOp{Dst: dst, Op: "+", L: v, R: c, Line: 5}, dst, 2, "$1 = x + 3", 5},
		{&UnOp{Dst: dst, Op: "-", X: v, Line: 6}, dst, 1, "$1 = -x", 6},
		{&Call{Dst: dst, Name: "f", Args: []Value{v, c}, Line: 7}, dst, 2, "$1 = call f(x, 3)", 7},
		{&Call{Dst: nil, Name: "g", Line: 8}, nil, 0, "call g()", 8},
		{&ArrayLoad{Dst: dst, Array: "a", Index: c, Line: 9}, dst, 1, "$1 = a[3]", 9},
		{&ArrayStore{Array: "a", Index: c, Src: v, Line: 10}, nil, 2, "a[3] = x", 10},
	}
	for _, tc := range cases {
		if got := tc.in.Defs(); got != tc.wantDefs {
			t.Errorf("%T Defs = %v, want %v", tc.in, got, tc.wantDefs)
		}
		if got := len(tc.in.Uses()); got != tc.wantUses {
			t.Errorf("%T Uses = %d, want %d", tc.in, got, tc.wantUses)
		}
		if got := tc.in.String(); got != tc.wantStr {
			t.Errorf("%T String = %q, want %q", tc.in, got, tc.wantStr)
		}
		if got := tc.in.SrcLine(); got != tc.line {
			t.Errorf("%T SrcLine = %d, want %d", tc.in, got, tc.line)
		}
	}

	terms := []struct {
		term      Terminator
		wantSuccs int
		wantUses  int
		wantStr   string
	}{
		{&Jump{Target: blk}, 1, 0, "jump b0"},
		{&Branch{Cond: v, True: blk, False: other}, 2, 1, "branch x ? b0 : b1"},
		{&Ret{Value: c}, 0, 1, "ret 3"},
		{&Ret{}, 0, 0, "ret"},
	}
	for _, tc := range terms {
		if got := len(tc.term.Succs()); got != tc.wantSuccs {
			t.Errorf("%T Succs = %d, want %d", tc.term, got, tc.wantSuccs)
		}
		if got := len(tc.term.Uses()); got != tc.wantUses {
			t.Errorf("%T Uses = %d, want %d", tc.term, got, tc.wantUses)
		}
		if got := tc.term.String(); got != tc.wantStr {
			t.Errorf("%T String = %q, want %q", tc.term, got, tc.wantStr)
		}
	}
}

func TestBlockSuccsNilTerm(t *testing.T) {
	b := &Block{Name: "dangling"}
	if got := b.Succs(); got != nil {
		t.Fatalf("nil-term Succs = %v", got)
	}
}

func TestProgramStringIncludesAllBlocks(t *testing.T) {
	f := MustLowerSource(`
int f(int x) {
	if (x) { return 1; }
	return 0;
}`).Funcs[0]
	out := f.String()
	for _, b := range f.Blocks {
		if !strings.Contains(out, b.Name+":") {
			t.Fatalf("dump missing block %s:\n%s", b.Name, out)
		}
	}
}
