package core

import (
	"repro/internal/adl"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/smt"
)

// execCtx implements rtl.SymState for one instruction execution. It
// routes register and memory traffic to the current state, calls the
// checker hooks, and concretizes symbolic memory addresses against the
// path condition.
type execCtx struct {
	e       *Engine
	st      *State
	insAddr uint64
	disasm  string

	infeasible bool
	err        error
}

// ReadReg implements rtl.SymState. Semantics observe the program counter
// as the executing instruction's own address (the ADL contract), while
// the register itself holds the fall-through continuation.
func (c *execCtx) ReadReg(r *adl.Reg) *expr.Expr {
	if r == c.e.Arch.PC {
		return c.e.B.Const(r.Width, c.insAddr)
	}
	if r.Zero {
		return c.e.B.Const(r.Width, 0)
	}
	return c.st.Reg(r)
}

// WriteReg implements rtl.SymState: guarded writes merge against the raw
// register content, so an untaken branch leaves the continuation pc in
// place.
func (c *execCtx) WriteReg(r *adl.Reg, v *expr.Expr, guard *expr.Expr) {
	if r.Zero {
		return // hardwired zero register: writes are discarded
	}
	if guard != nil {
		v = c.e.B.ITE(guard, v, c.st.Reg(r))
	}
	c.st.SetReg(r, v)
}

// Load implements rtl.SymState.
func (c *execCtx) Load(addr *expr.Expr, cells uint, guard *expr.Expr) *expr.Expr {
	c.e.inject.Fire(faultinject.SiteMem)
	c.checkMem(addr, cells, false, guard)
	a, ok := c.concretize(addr, guard)
	if !ok {
		// The path is dead or errored; return a dummy of the right width.
		return c.e.B.Const(cells*8, 0)
	}
	return c.st.mem.Read(c.e.B, a, cells, c.e.Arch.Endian == adl.Little)
}

// Store implements rtl.SymState.
func (c *execCtx) Store(addr *expr.Expr, cells uint, val *expr.Expr, guard *expr.Expr) {
	c.e.inject.Fire(faultinject.SiteMem)
	c.checkMem(addr, cells, true, guard)
	a, ok := c.concretize(addr, guard)
	if !ok {
		return
	}
	if guard != nil {
		// Predicated store: merge against the current memory content.
		old := c.st.mem.Read(c.e.B, a, cells, c.e.Arch.Endian == adl.Little)
		val = c.e.B.ITE(guard, val, old)
	}
	c.st.mem.Write(c.e.B, a, cells, val, c.e.Arch.Endian == adl.Little)
}

func (c *execCtx) checkMem(addr *expr.Expr, cells uint, isWrite bool, guard *expr.Expr) {
	if len(c.e.checkers) == 0 {
		return
	}
	ctx := &CheckCtx{Engine: c.e, State: c.st, PC: c.insAddr, Insn: c.disasm, Guard: guard}
	for _, ch := range c.e.checkers {
		ch.MemAccess(ctx, addr, cells, isWrite)
	}
}

// concretize pins a symbolic address to one concrete value consistent
// with the path condition, recording the choice as a path constraint
// (guarded by the access guard so the complement side stays unaffected).
// This is the standard address-concretization policy of binary-level
// symbolic executors.
func (c *execCtx) concretize(addr *expr.Expr, guard *expr.Expr) (uint64, bool) {
	if c.err != nil || c.infeasible {
		return 0, false
	}
	if addr.IsConst() {
		return addr.ConstVal(), true
	}
	if c.e.concEnv != nil {
		// Concolic replay: the concrete input decides the address.
		v := expr.Eval(addr, c.e.concEnv)
		eq := c.e.B.Eq(addr, c.e.B.Const(addr.Width(), v))
		if guard != nil {
			eq = c.e.B.Implies(guard, eq)
		}
		c.st.appendCond(eq)
		return v, true
	}
	cond := c.st.PathCond
	if guard != nil {
		// Prefer a model where the access actually happens; if the guard
		// cannot hold, the access is dead and any address will do.
		withGuard := append(append([]*expr.Expr(nil), cond...), guard)
		r, err := c.e.Solver.Check(withGuard...)
		switch {
		case err == nil && r == smt.Sat:
			v := c.e.Solver.Value(addr)
			eq := c.e.B.Eq(addr, c.e.B.Const(addr.Width(), v))
			c.st.appendCond(c.e.B.Implies(guard, eq))
			return v, true
		case err == nil && r == smt.Unsat:
			return 0, false // guard infeasible: the access never happens
		case err == smt.ErrBudget || err == smt.ErrDeadline:
			// Degrade: fall through to the unguarded query below.
			c.e.degradeUnknown(err, DegradeConcBudget, DegradeConcDeadline)
		default:
			c.err = err
			return 0, false
		}
	}
	r, err := c.e.Solver.Check(cond...)
	if deg, derr := c.e.degradeUnknown(err, DegradeConcBudget, DegradeConcDeadline); deg {
		// Cannot concretize within budget/deadline: over-approximate by
		// evaluating the address under the all-zero assignment instead
		// of killing the path. The chosen address is recorded as a path
		// constraint exactly like a model-derived one, so the path stays
		// a genuine (if possibly infeasible) over-approximation — bugs
		// on it are still gated by the recorded condition.
		v := expr.Eval(addr, expr.Env{})
		eq := c.e.B.Eq(addr, c.e.B.Const(addr.Width(), v))
		if guard != nil {
			eq = c.e.B.Implies(guard, eq)
		}
		c.st.appendCond(eq)
		return v, true
	} else if derr != nil {
		c.err = derr
		return 0, false
	}
	if r != smt.Sat {
		c.infeasible = true
		return 0, false
	}
	v := c.e.Solver.Value(addr)
	eq := c.e.B.Eq(addr, c.e.B.Const(addr.Width(), v))
	if guard != nil {
		eq = c.e.B.Implies(guard, eq)
	}
	c.st.appendCond(eq)
	return v, true
}

// writtenRange reports whether any byte of [addr, addr+n) has an overlay
// entry (used to keep the translation cache sound under self-modifying
// code).
func (m *Memory) writtenRange(addr uint64, n int) bool {
	if m.n == 0 {
		return false
	}
	for i := 0; i < n; i++ {
		if m.get((addr+uint64(i))&m.mask) != nil {
			return true
		}
	}
	return false
}
