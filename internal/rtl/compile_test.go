package rtl_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/arch"
	"repro/internal/adl"
	"repro/internal/bv"
	"repro/internal/expr"
	"repro/internal/rtl"
)

// randOps draws a random operand assignment within field widths.
func randOps(r *rand.Rand, ins *adl.Insn) rtl.Operands {
	ops := rtl.Operands{}
	for _, op := range ins.Operands {
		ops[op.Name] = r.Uint64() & (1<<op.Bits() - 1)
	}
	return ops
}

// mirrorStates builds a concrete state and an identical symbolic state
// with constant contents.
func mirrorStates(r *rand.Rand, a *adl.Arch, b *expr.Builder) (*concState, *symState) {
	big := a.Endian == adl.Big
	cs := newConcState(big)
	ss := newSymState(b, big)
	for _, reg := range a.Regs {
		v := bv.Trunc(r.Uint64(), reg.Width)
		if reg.Zero {
			v = 0
		}
		cs.WriteReg(reg, v)
		ss.regs[reg] = b.Const(reg.Width, v)
	}
	for addr := uint64(0); addr < 256; addr++ {
		v := byte(r.Uint32())
		cs.mem[addr] = v
		ss.mem[addr] = b.Const(8, uint64(v))
	}
	return cs, ss
}

func cloneConcState(s *concState) *concState {
	out := newConcState(s.big)
	for r, v := range s.regs {
		out.regs[r] = v
	}
	for a, v := range s.mem {
		out.mem[a] = v
	}
	return out
}

// recSymState is an rtl.SymState that records every interaction as a
// hash trace instead of materializing memory, so two evaluator runs can
// be compared on arbitrary (symbolic-address) programs: identical
// traces and final registers mean identical expression DAGs built in
// the identical order.
type recSymState struct {
	b     *expr.Builder
	regs  map[*adl.Reg]*expr.Expr
	log   []string
	loads int
}

func newRecSymState(b *expr.Builder) *recSymState {
	return &recSymState{b: b, regs: map[*adl.Reg]*expr.Expr{}}
}

func h(e *expr.Expr) uint64 {
	if e == nil {
		return 0
	}
	return expr.Hash(e)
}

func (s *recSymState) ReadReg(r *adl.Reg) *expr.Expr { return s.regs[r] }

func (s *recSymState) WriteReg(r *adl.Reg, v *expr.Expr, guard *expr.Expr) {
	s.log = append(s.log, fmt.Sprintf("w %s %x %x", r.Name, h(v), h(guard)))
	if guard != nil {
		v = s.b.ITE(guard, v, s.regs[r])
	}
	s.regs[r] = v
}

func (s *recSymState) Load(addr *expr.Expr, cells uint, guard *expr.Expr) *expr.Expr {
	s.log = append(s.log, fmt.Sprintf("l %x %d %x", h(addr), cells, h(guard)))
	v := s.b.Var(8*cells, fmt.Sprintf("ld%d_%d", s.loads, cells))
	s.loads++
	return v
}

func (s *recSymState) Store(addr *expr.Expr, cells uint, val *expr.Expr, guard *expr.Expr) {
	s.log = append(s.log, fmt.Sprintf("s %x %d %x %x", h(addr), cells, h(val), h(guard)))
}

func diffRecStates(x, y *recSymState) string {
	if len(x.log) != len(y.log) {
		return fmt.Sprintf("trace length %d vs %d", len(x.log), len(y.log))
	}
	for i := range x.log {
		if x.log[i] != y.log[i] {
			return fmt.Sprintf("trace[%d]: %s vs %s", i, x.log[i], y.log[i])
		}
	}
	for r, v := range x.regs {
		if !exprEq(v, y.regs[r]) {
			return fmt.Sprintf("reg %s: %v vs %v", r.Name, v, y.regs[r])
		}
	}
	return ""
}

func diffConcStates(x, y *concState) string {
	for r, v := range x.regs {
		if y.regs[r] != v {
			return fmt.Sprintf("reg %s: %#x vs %#x", r.Name, v, y.regs[r])
		}
	}
	for r, v := range y.regs {
		if x.regs[r] != v {
			return fmt.Sprintf("reg %s: %#x vs %#x", r.Name, x.regs[r], v)
		}
	}
	for a, v := range x.mem {
		if y.mem[a] != v {
			return fmt.Sprintf("mem[%#x]: %#x vs %#x", a, v, y.mem[a])
		}
	}
	for a, v := range y.mem {
		if x.mem[a] != v {
			return fmt.Sprintf("mem[%#x]: %#x vs %#x", a, x.mem[a], v)
		}
	}
	return ""
}

// exprEq compares two expressions structurally (nil-safe). The builder
// hash-conses, so within one builder identical structure means an
// identical node; the hash comparison keeps failure messages useful
// across builders too.
func exprEq(x, y *expr.Expr) bool {
	if (x == nil) != (y == nil) {
		return false
	}
	return x == nil || expr.Hash(x) == expr.Hash(y)
}

func diffSymStates(x, y *symState) string {
	for r, v := range x.regs {
		if !exprEq(v, y.regs[r]) {
			return fmt.Sprintf("reg %s: %v vs %v", r.Name, v, y.regs[r])
		}
	}
	if len(x.regs) != len(y.regs) {
		return fmt.Sprintf("reg count %d vs %d", len(x.regs), len(y.regs))
	}
	for a, v := range x.mem {
		if !exprEq(v, y.mem[a]) {
			return fmt.Sprintf("mem[%#x]: %v vs %v", a, v, y.mem[a])
		}
	}
	if len(x.mem) != len(y.mem) {
		return fmt.Sprintf("mem count %d vs %d", len(x.mem), len(y.mem))
	}
	return ""
}

func diffEvents(x, y []rtl.Event) string {
	if len(x) != len(y) {
		return fmt.Sprintf("event count %d vs %d", len(x), len(y))
	}
	for i := range x {
		a, b := x[i], y[i]
		if a.Kind != b.Kind || a.Msg != b.Msg || !exprEq(a.Guard, b.Guard) || !exprEq(a.Code, b.Code) {
			return fmt.Sprintf("event %d: %+v vs %+v", i, a, b)
		}
	}
	return ""
}

// testArches yields the compact feature-complete test architecture plus
// every embedded production description.
func testArches(t *testing.T) []*adl.Arch {
	t.Helper()
	out := []*adl.Arch{loadTestArch(t)}
	for _, name := range arch.Names() {
		a, err := arch.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, a)
	}
	return out
}

// TestCompiledConcMatchesInterpreter is the concrete half of the
// compiler's equivalence contract: for every instruction of every
// architecture, random operands and random states, the compiled closure
// chain and the AST interpreter must produce identical results and
// final machine states.
func TestCompiledConcMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	b := expr.NewBuilder()
	sc := &rtl.Scratch{}
	for _, a := range testArches(t) {
		for _, ins := range a.Insns {
			for iter := 0; iter < 100; iter++ {
				ops := randOps(r, ins)
				cs, _ := mirrorStates(r, a, b)
				cs2 := cloneConcState(cs)
				unit := rtl.Compile(ins, ops, a.PC)

				want := rtl.ConcExec(cs, ins, ops)
				got := unit.ExecConc(cs2, sc)
				if want != got {
					t.Fatalf("%s/%s: result %+v vs %+v", a.Name, ins.Name, want, got)
				}
				if d := diffConcStates(cs, cs2); d != "" {
					t.Fatalf("%s/%s: state diverged: %s", a.Name, ins.Name, d)
				}
			}
		}
	}
}

// TestCompiledSymMatchesInterpreter is the symbolic half: the compiled
// chain must build the exact same expression DAG as the interpreter —
// same register and memory expressions, same events with the same
// guards — over states mixing constant and free-variable registers.
func TestCompiledSymMatchesInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, a := range testArches(t) {
		b := expr.NewBuilder()
		ev := &rtl.SymEval{B: b, A: a}
		sc := &rtl.Scratch{}
		for _, ins := range a.Insns {
			for iter := 0; iter < 60; iter++ {
				ops := randOps(r, ins)
				// Register contents: a deterministic mix of constants and
				// free variables, identical in both states, so guards stay
				// non-constant and the predication machinery is exercised.
				ss := newRecSymState(b)
				ss2 := newRecSymState(b)
				for i, reg := range a.Regs {
					var v *expr.Expr
					if !reg.Zero && r.Intn(2) == 0 {
						v = b.Var(reg.Width, fmt.Sprintf("r%d", i))
					} else {
						v = b.Const(reg.Width, bv.Trunc(r.Uint64(), reg.Width))
					}
					ss.regs[reg] = v
					ss2.regs[reg] = v
				}
				unit := rtl.Compile(ins, ops, a.PC)

				wantEv := ev.Exec(ss, ins, ops)
				gotEv := unit.ExecSym(b, ss2, sc)
				if d := diffEvents(wantEv, gotEv); d != "" {
					t.Fatalf("%s/%s: events diverged: %s", a.Name, ins.Name, d)
				}
				if d := diffRecStates(ss, ss2); d != "" {
					t.Fatalf("%s/%s: state diverged: %s", a.Name, ins.Name, d)
				}
			}
		}
	}
}

// TestCompiledStaticFlags pins the superblock-eligibility analysis on
// the feature-complete test architecture.
func TestCompiledStaticFlags(t *testing.T) {
	a := loadTestArch(t)
	want := map[string]struct{ writesPC, hasCtl bool }{
		"alu":     {false, false},
		"divish":  {false, false},
		"memop":   {false, false},
		"branchy": {true, true}, // pc assignment in one arm, trap in another
		"faulty":  {false, true},
		"shifty":  {false, true},
	}
	for _, ins := range a.Insns {
		w, ok := want[ins.Name]
		if !ok {
			t.Fatalf("unexpected instruction %s", ins.Name)
		}
		u := rtl.Compile(ins, rtl.Operands{"rd": 0, "rs": 1, "imm": 3}, a.PC)
		if u.WritesPC != w.writesPC || u.HasCtl != w.hasCtl {
			t.Errorf("%s: WritesPC=%v HasCtl=%v, want %+v", ins.Name, u.WritesPC, u.HasCtl, w)
		}
		if u.Straightline() != (!w.writesPC && !w.hasCtl) {
			t.Errorf("%s: Straightline=%v inconsistent with flags", ins.Name, u.Straightline())
		}
		if u.NumLocals != adl.NumLocals(ins.Sem) {
			t.Errorf("%s: NumLocals=%d, want %d", ins.Name, u.NumLocals, adl.NumLocals(ins.Sem))
		}
	}
	// A nil pc must be conservative.
	if u := rtl.Compile(a.Insns[0], rtl.Operands{"rd": 0, "rs": 1, "imm": 3}, nil); !u.WritesPC {
		t.Error("nil pc: WritesPC should be conservatively true")
	}
}

// TestConcExecScratchReuse checks that the interpreter's scratch entry
// point is equivalent to the allocating one across repeated reuse of a
// single buffer (stale locals from a previous instruction must never
// leak into the next).
func TestConcExecScratchReuse(t *testing.T) {
	a := loadTestArch(t)
	r := rand.New(rand.NewSource(23))
	b := expr.NewBuilder()
	sc := &rtl.Scratch{}
	for iter := 0; iter < 500; iter++ {
		ins := a.Insns[r.Intn(len(a.Insns))]
		ops := randOps(r, ins)
		cs, _ := mirrorStates(r, a, b)
		cs2 := cloneConcState(cs)
		want := rtl.ConcExec(cs, ins, ops)
		got := rtl.ConcExecScratch(cs2, ins, ops, sc)
		if want != got {
			t.Fatalf("%s: result %+v vs %+v", ins.Name, want, got)
		}
		if d := diffConcStates(cs, cs2); d != "" {
			t.Fatalf("%s: state diverged: %s", ins.Name, d)
		}
	}
}

// benchSetup compiles one instruction of the test arch with fixed
// operands and a warm state.
func benchSetup(b *testing.B, name string) (*adl.Arch, *adl.Insn, rtl.Operands, *concState) {
	b.Helper()
	a, err := adl.Load("rtltest.adl", testArch)
	if err != nil {
		b.Fatal(err)
	}
	var ins *adl.Insn
	for _, i := range a.Insns {
		if i.Name == name {
			ins = i
		}
	}
	if ins == nil {
		b.Fatalf("no instruction %s", name)
	}
	ops := rtl.Operands{"rd": 0, "rs": 1, "imm": 0x15}
	cs := newConcState(true)
	for _, reg := range a.Regs {
		cs.WriteReg(reg, 0x1234)
	}
	return a, ins, ops, cs
}

// BenchmarkCompiledVsInterp tracks the evaluator-level speedup of the
// semantics compiler on representative instructions (docs/compile.md),
// and the one-shot compile-and-execute cost that keeps the engine's
// self-modified-window fallback on the interpreter.
func BenchmarkCompiledVsInterp(b *testing.B) {
	for _, name := range []string{"alu", "memop", "branchy"} {
		a, ins, ops, cs := benchSetup(b, name)
		unit := rtl.Compile(ins, ops, a.PC)
		sc := &rtl.Scratch{}
		b.Run(name+"/conc-interp", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rtl.ConcExec(cs, ins, ops)
			}
		})
		b.Run(name+"/conc-interp-scratch", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rtl.ConcExecScratch(cs, ins, ops, sc)
			}
		})
		b.Run(name+"/conc-compiled", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				unit.ExecConc(cs, sc)
			}
		})
		eb := expr.NewBuilder()
		ev := &rtl.SymEval{B: eb, A: a}
		mkSym := func() *symState {
			ss := newSymState(eb, true)
			for _, reg := range a.Regs {
				ss.regs[reg] = eb.Const(reg.Width, 0x1234)
			}
			return ss
		}
		b.Run(name+"/sym-interp", func(b *testing.B) {
			ss := mkSym()
			for i := 0; i < b.N; i++ {
				ev.Exec(ss, ins, ops)
			}
		})
		b.Run(name+"/sym-compiled", func(b *testing.B) {
			ss := mkSym()
			for i := 0; i < b.N; i++ {
				unit.ExecSym(eb, ss, sc)
			}
		})
		// A unit compiled for a single execution: what a self-modified
		// fetch window would cost per step if the engine compiled it
		// instead of interpreting it (docs/compile.md).
		b.Run(name+"/sym-compile+exec", func(b *testing.B) {
			ss := mkSym()
			for i := 0; i < b.N; i++ {
				rtl.Compile(ins, ops, a.PC).ExecSym(eb, ss, sc)
			}
		})
	}
}
