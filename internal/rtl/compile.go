// Semantics compiler: translate-time specialization of the checked RTL
// IR into chains of Go closures (docs/compile.md).
//
// The interpreted evaluators in rtl.go / conc.go re-walk the statement
// tree of an instruction on every execution: each step re-dispatches on
// node types, re-looks operand values up in the Operands map, and
// re-derives field widths that never change for a given decoded
// instruction. Compile performs that walk exactly once per decoded
// instruction — operand registers are resolved to *adl.Reg pointers,
// immediates become captured constants, widths are burned into the
// closure — and returns a Compiled unit whose execution is a straight
// chain of indirect calls.
//
// The closure ABI is deliberately narrow so one compiled unit is
// shareable across goroutines: closures capture only immutable
// compile-time data and receive ALL mutable run state (machine state,
// expression builder, locals scratch, event list) through a frame
// passed at call time. A unit compiled once may therefore live in a
// cache shared by every worker of a parallel run.
//
// Equivalence contract: a compiled unit must be observationally
// identical to the interpreter it replaces — same final machine state,
// same events in the same order, and (for the symbolic evaluator) the
// exact same expression DAG, node for node, so path conditions and
// builder-independent path signatures match bit for bit. The symbolic
// compiler therefore performs NO algebraic rewriting of its own: every
// simplification must come from the expression builder, exactly as in
// the interpreted path. The concrete compiler may pre-fold pure
// constant subtrees (immediate arithmetic) because uint64 values carry
// no structure a caller could observe.
package rtl

import (
	"fmt"

	"repro/internal/adl"
	"repro/internal/bv"
	"repro/internal/expr"
)

// Compiled is one decoded instruction's semantics specialized to Go
// closures: one chain for the concrete evaluator, one for the symbolic
// evaluator. It is immutable after Compile and safe for concurrent use
// by any number of goroutines (each brings its own Scratch).
type Compiled struct {
	// NumLocals is the local-slot count of the semantics, resolved once
	// (the interpreter recomputes it per execution to size its
	// allocation).
	NumLocals int

	// WritesPC reports whether any assignment in the semantics targets
	// the program counter (statically resolved, including register-file
	// operands and sub-field writes). False means the instruction always
	// falls through.
	WritesPC bool

	// HasCtl reports whether a trap/halt/error statement occurs anywhere
	// in the semantics, even under a condition.
	HasCtl bool

	// Mnemonic and Format carry the ADL symbolization of the compiled
	// instruction (its mnemonic and encoding-format name), so profiling
	// and diagnostics on the compiled path can name guest instructions
	// without re-decoding.
	Mnemonic string
	Format   string

	conc []concStmtFn
	sym  []symStmtFn
}

// Straightline reports whether the instruction can never leave the
// fall-through path: no pc write and no control event. Superblock
// construction chains straightline units back-to-back.
func (u *Compiled) Straightline() bool { return !u.WritesPC && !u.HasCtl }

// concFrame carries the mutable state of one concrete execution through
// the closure chain.
type concFrame struct {
	st     ConcState
	locals []uint64
	res    ConcResult
	stop   bool
}

// symFrame carries the mutable state of one symbolic execution through
// the closure chain. It mirrors symCtx exactly, including the stopped
// disjunction semantics (see rtl.go).
type symFrame struct {
	b       *expr.Builder
	st      SymState
	locals  []*expr.Expr
	events  []Event
	stopped *expr.Expr
}

func (c *symFrame) and(g, h *expr.Expr) *expr.Expr {
	switch {
	case g == nil:
		return h
	case h == nil:
		return g
	default:
		return c.b.BoolAnd(g, h)
	}
}

func (c *symFrame) live(guard *expr.Expr) *expr.Expr {
	if c.stopped == nil {
		return guard
	}
	return c.and(guard, c.b.BoolNot(c.stopped))
}

func (c *symFrame) noteStop(g *expr.Expr) {
	if g == nil {
		c.stopped = c.b.Bool(true)
		return
	}
	if c.stopped == nil {
		c.stopped = g
		return
	}
	c.stopped = c.b.BoolOr(c.stopped, g)
}

// Closure signatures. Statements receive the frame (symbolic ones also
// the structural guard of their position); expressions return values.
type (
	concStmtFn func(c *concFrame)
	concExprFn func(c *concFrame) uint64
	concBoolFn func(c *concFrame) bool
	symStmtFn  func(c *symFrame, guard *expr.Expr)
	symExprFn  func(c *symFrame, guard *expr.Expr) *expr.Expr
)

// Scratch is the reusable per-goroutine execution buffer for compiled
// units (and for the scratch-taking interpreter entry points): the
// locals slices and the frames live here, so the per-instruction hot
// path allocates nothing. The zero value is ready to use; do not share
// one Scratch between goroutines.
type Scratch struct {
	conc []uint64
	sym  []*expr.Expr
	cf   concFrame
	sf   symFrame
	ic   concCtx
}

// concLocals returns the zeroed concrete locals buffer, growing it on
// first use of a larger instruction.
func (sc *Scratch) concLocals(n int) []uint64 {
	if cap(sc.conc) < n {
		sc.conc = make([]uint64, n)
	}
	buf := sc.conc[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// symLocals returns the cleared symbolic locals buffer (nil entries =
// uninitialized, as in the interpreter).
func (sc *Scratch) symLocals(n int) []*expr.Expr {
	if cap(sc.sym) < n {
		sc.sym = make([]*expr.Expr, n)
	}
	buf := sc.sym[:n]
	for i := range buf {
		buf[i] = nil
	}
	return buf
}

// ExecConc runs the compiled concrete semantics against st. sc may be
// nil (a fresh scratch is allocated — convenient in tests, wasteful in
// loops).
func (u *Compiled) ExecConc(st ConcState, sc *Scratch) ConcResult {
	if sc == nil {
		sc = &Scratch{}
	}
	f := &sc.cf
	f.st = st
	f.locals = u.concLocalsFor(sc)
	f.res = ConcResult{}
	f.stop = false
	for _, fn := range u.conc {
		if f.stop {
			break
		}
		fn(f)
	}
	f.st = nil // do not pin the machine state between executions
	return f.res
}

func (u *Compiled) concLocalsFor(sc *Scratch) []uint64 {
	if u.NumLocals == 0 {
		return nil
	}
	return sc.concLocals(u.NumLocals)
}

// ExecSym runs the compiled symbolic semantics on builder b against st,
// returning the control events raised. The caller must have set the
// architecture's pc register to the instruction's own address
// beforehand, exactly as for SymEval.Exec. sc may be nil.
func (u *Compiled) ExecSym(b *expr.Builder, st SymState, sc *Scratch) []Event {
	if sc == nil {
		sc = &Scratch{}
	}
	f := &sc.sf
	f.b = b
	f.st = st
	if u.NumLocals == 0 {
		f.locals = nil
	} else {
		f.locals = sc.symLocals(u.NumLocals)
	}
	f.events = nil
	f.stopped = nil
	for _, fn := range u.sym {
		fn(f, nil)
	}
	f.st = nil
	f.b = nil
	out := f.events
	f.events = nil
	return out
}

// Compile specializes the semantics of one decoded instruction (ins
// with the fixed operand values ops) into a Compiled unit. pc, when
// non-nil, is the architecture's program counter and drives the
// WritesPC flag; a nil pc conservatively marks every unit as
// pc-writing. Compile panics with *UnsupportedError on an RTL construct
// neither evaluator supports, mirroring the interpreters' behavior at
// the same recover boundaries.
func Compile(ins *adl.Insn, ops Operands, pc *adl.Reg) *Compiled {
	cc := &compiler{ops: ops, pc: pc}
	u := &Compiled{NumLocals: adl.NumLocals(ins.Sem), Mnemonic: ins.Mnemonic, Format: ins.FormatName()}
	if pc == nil {
		u.WritesPC = true
	}
	u.conc = cc.concStmts(ins.Sem, u)
	u.sym = cc.symStmts(ins.Sem, u)
	return u
}

// compiler is the per-instruction compile context: the fixed operand
// values and the pc register for static flag analysis.
type compiler struct {
	ops Operands
	pc  *adl.Reg
}

func (cc *compiler) opReg(op *adl.Operand) *adl.Reg {
	return op.File.Regs[cc.ops[op.Name]]
}

// notePCWrite flags u when the statically resolved destination register
// is the program counter.
func (cc *compiler) notePCWrite(u *Compiled, r *adl.Reg) {
	if cc.pc != nil && r == cc.pc {
		u.WritesPC = true
	}
}

// ---------------------------------------------------------------------
// Concrete compilation.

func (cc *compiler) concStmts(ss []adl.Stmt, u *Compiled) []concStmtFn {
	out := make([]concStmtFn, len(ss))
	for i, s := range ss {
		out[i] = cc.concStmt(s, u)
	}
	return out
}

// runConcList executes a compiled statement list honoring the
// stop-at-first-event rule (shared by the top-level chain and nested if
// branches).
func runConcList(fns []concStmtFn, c *concFrame) {
	for _, fn := range fns {
		if c.stop {
			return
		}
		fn(c)
	}
}

func (cc *compiler) concStmt(s adl.Stmt, u *Compiled) concStmtFn {
	switch s := s.(type) {
	case *adl.AssignStmt:
		rhs := cc.concExpr(s.RHS)
		switch lv := s.LHS.(type) {
		case *adl.RegLV:
			r := lv.Reg
			cc.notePCWrite(u, r)
			return func(c *concFrame) { c.st.WriteReg(r, rhs(c)) }
		case *adl.RegOpLV:
			r := cc.opReg(lv.Op)
			cc.notePCWrite(u, r)
			return func(c *concFrame) { c.st.WriteReg(r, rhs(c)) }
		case *adl.SubLV:
			r := lv.Reg
			cc.notePCWrite(u, r)
			w := lv.Hi - lv.Lo + 1
			mask := bv.Mask(w) << lv.Lo
			lo := lv.Lo
			return func(c *concFrame) {
				old := c.st.ReadReg(r)
				c.st.WriteReg(r, old&^mask|(bv.Trunc(rhs(c), w)<<lo))
			}
		default:
			idx := s.LHS.(*adl.LocalLV).Idx
			return func(c *concFrame) { c.locals[idx] = rhs(c) }
		}
	case *adl.StoreStmt:
		addr := cc.concExpr(s.Addr)
		val := cc.concExpr(s.Val)
		cells := s.Cells
		return func(c *concFrame) { c.st.Store(addr(c), cells, val(c)) }
	case *adl.IfStmt:
		cond := cc.concBool(s.Cond)
		then := cc.concStmts(s.Then, u)
		els := cc.concStmts(s.Else, u)
		return func(c *concFrame) {
			if cond(c) {
				runConcList(then, c)
			} else {
				runConcList(els, c)
			}
		}
	case *adl.LocalStmt:
		init := cc.concExpr(s.Init)
		idx := s.Idx
		return func(c *concFrame) { c.locals[idx] = init(c) }
	case *adl.TrapStmt:
		u.HasCtl = true
		code := cc.concExpr(s.Code)
		return func(c *concFrame) {
			c.res.Trapped = true
			c.res.TrapCode = code(c)
			c.stop = true
		}
	case *adl.HaltStmt:
		u.HasCtl = true
		return func(c *concFrame) {
			c.res.Halted = true
			c.stop = true
		}
	case *adl.ErrorStmt:
		u.HasCtl = true
		msg := s.Msg
		return func(c *concFrame) {
			c.res.Fault = msg
			c.stop = true
		}
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", s), Evaluator: "conc"})
	}
}

// concFold partially evaluates pure constant subtrees (immediates and
// constants combined by operators) at compile time. Folding is
// value-preserving by construction: it runs the same bv helpers the
// interpreter would. State-dependent nodes (registers, locals, loads)
// stop the fold.
func (cc *compiler) concFold(e adl.Expr) (uint64, bool) {
	switch e := e.(type) {
	case *adl.ConstExpr:
		return e.Val, true
	case *adl.ImmExpr:
		return bv.Trunc(cc.ops[e.Op.Name], e.Op.Bits()), true
	case *adl.UnExpr:
		x, ok := cc.concFold(e.X)
		if !ok {
			return 0, false
		}
		w := e.X.Width()
		if e.Op == adl.UNot {
			return bv.Not(x, w), true
		}
		return bv.Neg(x, w), true
	case *adl.BinExpr:
		x, ok := cc.concFold(e.X)
		if !ok {
			return 0, false
		}
		y, ok := cc.concFold(e.Y)
		if !ok {
			return 0, false
		}
		return concBin(e.Op, x, y, e.X.Width()), true
	case *adl.CmpExpr, *adl.BoolExpr:
		v, ok := cc.concFoldBool(e)
		if !ok {
			return 0, false
		}
		if v {
			return 1, true
		}
		return 0, true
	case *adl.TernExpr:
		cond, ok := cc.concFoldBool(e.Cond)
		if !ok {
			return 0, false
		}
		t, ok := cc.concFold(e.T)
		if !ok {
			return 0, false
		}
		f, ok := cc.concFold(e.F)
		if !ok {
			return 0, false
		}
		if cond {
			return t, true
		}
		return f, true
	case *adl.ExtractExpr:
		x, ok := cc.concFold(e.X)
		if !ok {
			return 0, false
		}
		return bv.Extract(x, e.Hi, e.Lo), true
	case *adl.ExtendExpr:
		x, ok := cc.concFold(e.X)
		if !ok {
			return 0, false
		}
		if e.Signed {
			return bv.Trunc(bv.SExt(x, e.X.Width()), e.W), true
		}
		return x, true
	case *adl.CatExpr:
		hi, ok := cc.concFold(e.Hi)
		if !ok {
			return 0, false
		}
		lo, ok := cc.concFold(e.Lo)
		if !ok {
			return 0, false
		}
		return bv.Concat(hi, lo, e.Hi.Width(), e.Lo.Width()), true
	}
	return 0, false
}

func (cc *compiler) concFoldBool(e adl.Expr) (bool, bool) {
	switch e := e.(type) {
	case *adl.CmpExpr:
		x, ok := cc.concFold(e.X)
		if !ok {
			return false, false
		}
		y, ok := cc.concFold(e.Y)
		if !ok {
			return false, false
		}
		return concCmp(e.Op, x, y, e.X.Width()), true
	case *adl.BoolExpr:
		x, ok := cc.concFoldBool(e.X)
		if !ok {
			return false, false
		}
		switch e.Op {
		case adl.LNot:
			return !x, true
		case adl.LAnd:
			if !x {
				return false, true
			}
			return cc.concFoldBool(e.Y)
		default:
			if x {
				return true, true
			}
			return cc.concFoldBool(e.Y)
		}
	}
	return false, false
}

func concBin(op adl.BinOp, x, y uint64, w uint) uint64 {
	switch op {
	case adl.BAdd:
		return bv.Add(x, y, w)
	case adl.BSub:
		return bv.Sub(x, y, w)
	case adl.BMul:
		return bv.Mul(x, y, w)
	case adl.BUDiv:
		return bv.UDiv(x, y, w)
	case adl.BURem:
		return bv.URem(x, y, w)
	case adl.BSDiv:
		return bv.SDiv(x, y, w)
	case adl.BSRem:
		return bv.SRem(x, y, w)
	case adl.BAnd:
		return x & y
	case adl.BOr:
		return x | y
	case adl.BXor:
		return x ^ y
	case adl.BShl:
		return bv.Shl(x, y, w)
	case adl.BLShr:
		return bv.LShr(x, y, w)
	default:
		return bv.AShr(x, y, w)
	}
}

func concCmp(op adl.CmpOp, x, y uint64, w uint) bool {
	switch op {
	case adl.CEq:
		return x == y
	case adl.CNe:
		return x != y
	case adl.CULt:
		return bv.ULt(x, y, w)
	case adl.CULe:
		return bv.ULe(x, y, w)
	case adl.CSLt:
		return bv.SLt(x, y, w)
	default:
		return bv.SLe(x, y, w)
	}
}

func (cc *compiler) concExpr(e adl.Expr) concExprFn {
	if v, ok := cc.concFold(e); ok {
		return func(*concFrame) uint64 { return v }
	}
	switch e := e.(type) {
	case *adl.RegExpr:
		r := e.Reg
		return func(c *concFrame) uint64 { return c.st.ReadReg(r) }
	case *adl.RegOpExpr:
		r := cc.opReg(e.Op)
		return func(c *concFrame) uint64 { return c.st.ReadReg(r) }
	case *adl.SubExpr:
		r, hi, lo := e.Reg, e.Hi, e.Lo
		return func(c *concFrame) uint64 { return bv.Extract(c.st.ReadReg(r), hi, lo) }
	case *adl.LocalExpr:
		idx := e.Idx
		return func(c *concFrame) uint64 { return c.locals[idx] }
	case *adl.UnExpr:
		x := cc.concExpr(e.X)
		w := e.X.Width()
		if e.Op == adl.UNot {
			return func(c *concFrame) uint64 { return bv.Not(x(c), w) }
		}
		return func(c *concFrame) uint64 { return bv.Neg(x(c), w) }
	case *adl.BinExpr:
		x, y := cc.concExpr(e.X), cc.concExpr(e.Y)
		w := e.X.Width()
		op := e.Op
		return func(c *concFrame) uint64 { return concBin(op, x(c), y(c), w) }
	case *adl.CmpExpr, *adl.BoolExpr:
		cond := cc.concBool(e)
		return func(c *concFrame) uint64 {
			if cond(c) {
				return 1
			}
			return 0
		}
	case *adl.TernExpr:
		cond := cc.concBool(e.Cond)
		t, f := cc.concExpr(e.T), cc.concExpr(e.F)
		return func(c *concFrame) uint64 {
			if cond(c) {
				return t(c)
			}
			return f(c)
		}
	case *adl.ExtractExpr:
		x := cc.concExpr(e.X)
		hi, lo := e.Hi, e.Lo
		return func(c *concFrame) uint64 { return bv.Extract(x(c), hi, lo) }
	case *adl.ExtendExpr:
		x := cc.concExpr(e.X)
		if e.Signed {
			xw, w := e.X.Width(), e.W
			return func(c *concFrame) uint64 { return bv.Trunc(bv.SExt(x(c), xw), w) }
		}
		return x
	case *adl.CatExpr:
		hi, lo := cc.concExpr(e.Hi), cc.concExpr(e.Lo)
		hw, lw := e.Hi.Width(), e.Lo.Width()
		return func(c *concFrame) uint64 { return bv.Concat(hi(c), lo(c), hw, lw) }
	case *adl.LoadExpr:
		addr := cc.concExpr(e.Addr)
		cells := e.Cells
		return func(c *concFrame) uint64 { return c.st.Load(addr(c), cells) }
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", e), Evaluator: "conc"})
	}
}

func (cc *compiler) concBool(e adl.Expr) concBoolFn {
	if v, ok := cc.concFoldBool(e); ok {
		return func(*concFrame) bool { return v }
	}
	switch e := e.(type) {
	case *adl.CmpExpr:
		x, y := cc.concExpr(e.X), cc.concExpr(e.Y)
		w := e.X.Width()
		op := e.Op
		return func(c *concFrame) bool { return concCmp(op, x(c), y(c), w) }
	case *adl.BoolExpr:
		switch e.Op {
		case adl.LNot:
			x := cc.concBool(e.X)
			return func(c *concFrame) bool { return !x(c) }
		case adl.LAnd:
			x, y := cc.concBool(e.X), cc.concBool(e.Y)
			return func(c *concFrame) bool { return x(c) && y(c) }
		default:
			x, y := cc.concBool(e.X), cc.concBool(e.Y)
			return func(c *concFrame) bool { return x(c) || y(c) }
		}
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", e), Evaluator: "conc"})
	}
}

// ---------------------------------------------------------------------
// Symbolic compilation. Mirrors symCtx statement for statement and
// builder call for builder call: the compiled path must construct the
// exact same expression DAG as the interpreter (see the equivalence
// contract in the package comment above).

func (cc *compiler) symStmts(ss []adl.Stmt, u *Compiled) []symStmtFn {
	out := make([]symStmtFn, len(ss))
	for i, s := range ss {
		out[i] = cc.symStmt(s, u)
	}
	return out
}

func runSymList(fns []symStmtFn, c *symFrame, guard *expr.Expr) {
	for _, fn := range fns {
		fn(c, guard)
	}
}

func (cc *compiler) symStmt(s adl.Stmt, u *Compiled) symStmtFn {
	switch s := s.(type) {
	case *adl.AssignStmt:
		rhs := cc.symExpr(s.RHS)
		switch lv := s.LHS.(type) {
		case *adl.RegLV:
			r := lv.Reg
			cc.notePCWrite(u, r)
			return func(c *symFrame, g *expr.Expr) {
				v := rhs(c, g)
				c.st.WriteReg(r, v, c.live(g))
			}
		case *adl.RegOpLV:
			r := cc.opReg(lv.Op)
			cc.notePCWrite(u, r)
			return func(c *symFrame, g *expr.Expr) {
				v := rhs(c, g)
				c.st.WriteReg(r, v, c.live(g))
			}
		case *adl.SubLV:
			r, hi, lo := lv.Reg, lv.Hi, lv.Lo
			cc.notePCWrite(u, r)
			return func(c *symFrame, g *expr.Expr) {
				v := rhs(c, g)
				eff := c.live(g)
				old := c.st.ReadReg(r)
				c.st.WriteReg(r, insertBits(c.b, old, v, hi, lo), eff)
			}
		default:
			idx := s.LHS.(*adl.LocalLV).Idx
			return func(c *symFrame, g *expr.Expr) {
				v := rhs(c, g)
				eff := c.live(g)
				old := c.locals[idx]
				if eff != nil && old != nil {
					v = c.b.ITE(eff, v, old)
				}
				c.locals[idx] = v
			}
		}
	case *adl.StoreStmt:
		addr := cc.symExpr(s.Addr)
		val := cc.symExpr(s.Val)
		cells := s.Cells
		return func(c *symFrame, g *expr.Expr) {
			a := addr(c, g)
			v := val(c, g)
			c.st.Store(a, cells, v, c.live(g))
		}
	case *adl.IfStmt:
		cond := cc.symExpr(s.Cond)
		then := cc.symStmts(s.Then, u)
		els := cc.symStmts(s.Else, u)
		return func(c *symFrame, g *expr.Expr) {
			cv := cond(c, g)
			// The constant-guard fast path is a RUNTIME property (the
			// builder may fold a condition over constant state), so it is
			// decided here, exactly as in the interpreter.
			if cv.Kind() == expr.KBoolConst {
				if cv.ConstVal() != 0 {
					runSymList(then, c, g)
				} else {
					runSymList(els, c, g)
				}
				return
			}
			runSymList(then, c, c.and(g, cv))
			runSymList(els, c, c.and(g, c.b.BoolNot(cv)))
		}
	case *adl.LocalStmt:
		init := cc.symExpr(s.Init)
		idx := s.Idx
		return func(c *symFrame, g *expr.Expr) { c.locals[idx] = init(c, g) }
	case *adl.TrapStmt:
		u.HasCtl = true
		code := cc.symExpr(s.Code)
		return func(c *symFrame, g *expr.Expr) {
			cv := code(c, g)
			eff := c.live(g)
			c.events = append(c.events, Event{Kind: EvTrap, Guard: eff, Code: cv})
			c.noteStop(eff)
		}
	case *adl.HaltStmt:
		u.HasCtl = true
		return func(c *symFrame, g *expr.Expr) {
			eff := c.live(g)
			c.events = append(c.events, Event{Kind: EvHalt, Guard: eff})
			c.noteStop(eff)
		}
	case *adl.ErrorStmt:
		u.HasCtl = true
		msg := s.Msg
		return func(c *symFrame, g *expr.Expr) {
			eff := c.live(g)
			c.events = append(c.events, Event{Kind: EvFault, Guard: eff, Msg: msg})
			c.noteStop(eff)
		}
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", s), Evaluator: "sym"})
	}
}

func (cc *compiler) symExpr(e adl.Expr) symExprFn {
	switch e := e.(type) {
	case *adl.ConstExpr:
		w, v := e.W, e.Val
		return func(c *symFrame, _ *expr.Expr) *expr.Expr { return c.b.Const(w, v) }
	case *adl.RegExpr:
		r := e.Reg
		return func(c *symFrame, _ *expr.Expr) *expr.Expr { return c.st.ReadReg(r) }
	case *adl.RegOpExpr:
		r := cc.opReg(e.Op)
		return func(c *symFrame, _ *expr.Expr) *expr.Expr { return c.st.ReadReg(r) }
	case *adl.ImmExpr:
		w, v := e.Op.Bits(), cc.ops[e.Op.Name]
		return func(c *symFrame, _ *expr.Expr) *expr.Expr { return c.b.Const(w, v) }
	case *adl.SubExpr:
		r, hi, lo := e.Reg, e.Hi, e.Lo
		return func(c *symFrame, _ *expr.Expr) *expr.Expr {
			return c.b.Extract(c.st.ReadReg(r), hi, lo)
		}
	case *adl.LocalExpr:
		idx, w := e.Idx, e.W
		return func(c *symFrame, _ *expr.Expr) *expr.Expr {
			v := c.locals[idx]
			if v == nil {
				return c.b.Const(w, 0)
			}
			return v
		}
	case *adl.UnExpr:
		x := cc.symExpr(e.X)
		if e.Op == adl.UNot {
			return func(c *symFrame, g *expr.Expr) *expr.Expr { return c.b.Not(x(c, g)) }
		}
		return func(c *symFrame, g *expr.Expr) *expr.Expr { return c.b.Neg(x(c, g)) }
	case *adl.BinExpr:
		x, y := cc.symExpr(e.X), cc.symExpr(e.Y)
		op := e.Op
		switch op {
		case adl.BUDiv, adl.BURem, adl.BSDiv, adl.BSRem:
			// Division observation: the event keeps the structural guard
			// (not the live guard) so checkers see divisors whose fault
			// guard would otherwise constrain them away.
			return func(c *symFrame, g *expr.Expr) *expr.Expr {
				xv, yv := x(c, g), y(c, g)
				c.events = append(c.events, Event{Kind: EvDiv, Guard: g, Code: yv})
				return symBin(c.b, op, xv, yv)
			}
		}
		return func(c *symFrame, g *expr.Expr) *expr.Expr {
			return symBin(c.b, op, x(c, g), y(c, g))
		}
	case *adl.CmpExpr:
		x, y := cc.symExpr(e.X), cc.symExpr(e.Y)
		op := e.Op
		return func(c *symFrame, g *expr.Expr) *expr.Expr {
			xv, yv := x(c, g), y(c, g)
			switch op {
			case adl.CEq:
				return c.b.Eq(xv, yv)
			case adl.CNe:
				return c.b.Ne(xv, yv)
			case adl.CULt:
				return c.b.ULt(xv, yv)
			case adl.CULe:
				return c.b.ULe(xv, yv)
			case adl.CSLt:
				return c.b.SLt(xv, yv)
			default:
				return c.b.SLe(xv, yv)
			}
		}
	case *adl.BoolExpr:
		x := cc.symExpr(e.X)
		switch e.Op {
		case adl.LNot:
			return func(c *symFrame, g *expr.Expr) *expr.Expr { return c.b.BoolNot(x(c, g)) }
		case adl.LAnd:
			y := cc.symExpr(e.Y)
			return func(c *symFrame, g *expr.Expr) *expr.Expr {
				return c.b.BoolAnd(x(c, g), y(c, g))
			}
		default:
			y := cc.symExpr(e.Y)
			return func(c *symFrame, g *expr.Expr) *expr.Expr {
				return c.b.BoolOr(x(c, g), y(c, g))
			}
		}
	case *adl.TernExpr:
		cond := cc.symExpr(e.Cond)
		t, f := cc.symExpr(e.T), cc.symExpr(e.F)
		return func(c *symFrame, g *expr.Expr) *expr.Expr {
			cv := cond(c, g)
			return c.b.ITE(cv, t(c, g), f(c, g))
		}
	case *adl.ExtractExpr:
		x := cc.symExpr(e.X)
		hi, lo := e.Hi, e.Lo
		return func(c *symFrame, g *expr.Expr) *expr.Expr {
			return c.b.Extract(x(c, g), hi, lo)
		}
	case *adl.ExtendExpr:
		x := cc.symExpr(e.X)
		w := e.W
		if e.Signed {
			return func(c *symFrame, g *expr.Expr) *expr.Expr { return c.b.SExt(x(c, g), w) }
		}
		return func(c *symFrame, g *expr.Expr) *expr.Expr { return c.b.ZExt(x(c, g), w) }
	case *adl.CatExpr:
		hi, lo := cc.symExpr(e.Hi), cc.symExpr(e.Lo)
		return func(c *symFrame, g *expr.Expr) *expr.Expr {
			hv := hi(c, g)
			return c.b.Concat(hv, lo(c, g))
		}
	case *adl.LoadExpr:
		addr := cc.symExpr(e.Addr)
		cells := e.Cells
		return func(c *symFrame, g *expr.Expr) *expr.Expr {
			return c.st.Load(addr(c, g), cells, g)
		}
	default:
		panic(&UnsupportedError{Construct: fmt.Sprintf("%T", e), Evaluator: "sym"})
	}
}
