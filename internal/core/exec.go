package core

import (
	"fmt"

	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/expr"
	"repro/internal/rtl"
	"repro/internal/smt"
)

func (e *Engine) initialState() *State {
	st := &State{
		ID:   e.nextID,
		regs: make([]*expr.Expr, len(e.Arch.Regs)),
		mem:  newMemory(e.Prog.Image(), bv.Mask(e.Arch.Bits)),
		PC:   e.Prog.Entry,
		// The empty path condition holds under any assignment.
		model: expr.Env{},
	}
	e.nextID++
	for i, r := range e.Arch.Regs {
		st.regs[i] = e.B.Const(r.Width, 0)
	}
	if e.Arch.SP != nil {
		st.SetReg(e.Arch.SP, e.B.Const(e.Arch.SP.Width, bv.Trunc(e.Opts.StackBase, e.Arch.SP.Width)))
	}
	e.rec.event("spawn", st.ID, st.PC, func() string { return "entry" })
	return st
}

// finish records a completed path in the worker's report.
func (e *Engine) finish(st *State) {
	e.rec.pathEnd(st)
	e.front.pathsDone.Add(1)
	pr := PathResult{
		ID:       st.ID,
		Status:   st.Status,
		Fault:    st.Fault,
		EndPC:    st.PC,
		Steps:    st.Steps,
		Depth:    st.Depth,
		PathCond: st.PathCond,
		Output:   st.Output,
		sig:      st.sig,

		PathFault: st.PathFault,
	}
	if e.Opts.CaptureEndState {
		end := &EndState{
			Regs: append([]*expr.Expr(nil), st.regs...),
			Mem:  make(map[uint64]*expr.Expr, st.mem.OverlaySize()),
			Base: st.mem.base,
		}
		st.mem.each(func(a uint64, v *expr.Expr) { end.Mem[a] = v })
		pr.End = end
	}
	e.report.Paths = append(e.report.Paths, pr)
}

func (st *State) done(status Status) *State {
	st.Done = true
	st.Status = status
	return st
}

// step executes one instruction of st and returns the successor states
// (one or more on forks; completed states have Done set).
func (e *Engine) step(st *State) ([]*State, error) {
	// Compiled execution (docs/compile.md): instruction bytes from the
	// unmodified image run through the shared cache of compiled units
	// and superblocks; a self-modified fetch window gets an uncached
	// entry of the state's own bytes (fetchEntry). Opportunistic merging
	// needs lockstep stepping — both branch sides live at the join pc at
	// the same time — so MergeStates runs one entry per step call and
	// skips superblock chaining.
	if !e.Opts.MergeStates {
		if blk := e.blockFor(st); len(blk.units) > 0 && !st.mem.writtenRange(st.PC, blk.units[0].window) {
			return e.runBlock(st, blk)
		}
	}
	ent, err := e.fetchEntry(st)
	if err != nil {
		st.Fault = err.Error()
		return []*State{st.done(StatusDecode)}, nil
	}
	return e.execEntry(st, ent)
}

// handleEvents applies trap/halt/fault events in order, splitting states
// on symbolic guards. It returns the completed states and the states that
// continue to the next instruction.
func (e *Engine) handleEvents(st *State, events []rtl.Event, pc uint64, disasm string) (done, continuing []*State, err error) {
	// Division observations run first, against the pre-event path
	// condition: control events below (e.g. an explicit divide-by-zero
	// fault in the description) otherwise constrain the divisor away
	// before the checker sees it.
	for _, ev := range events {
		if ev.Kind != rtl.EvDiv {
			continue
		}
		e.cov.Event(cover.LSym, cover.EvDiv)
		ctx := &CheckCtx{Engine: e, State: st, PC: pc, Insn: disasm, Guard: ev.Guard}
		for _, c := range e.checkers {
			c.Div(ctx, ev.Code)
		}
	}
	continuing = []*State{st}
	for _, ev := range events {
		if ev.Kind == rtl.EvDiv {
			continue
		}
		var next []*State
		for _, s := range continuing {
			taken, fallthru, ferr := e.splitOnGuard(s, ev.Guard)
			if ferr != nil {
				return nil, nil, ferr
			}
			if fallthru != nil {
				next = append(next, fallthru)
			}
			if taken == nil {
				continue
			}
			switch ev.Kind {
			case rtl.EvFault:
				e.cov.Event(cover.LSym, cover.EvFault)
				taken.Fault = ev.Msg
				done = append(done, taken.done(StatusFault))
			case rtl.EvHalt:
				e.cov.Event(cover.LSym, cover.EvHalt)
				done = append(done, taken.done(StatusHalt))
			case rtl.EvTrap:
				e.cov.Event(cover.LSym, cover.EvTrap)
				after := e.trap(taken, ev.Code, pc)
				if after.Done {
					done = append(done, after)
				} else {
					next = append(next, after)
				}
			}
		}
		continuing = next
	}
	return done, continuing, nil
}

// splitOnGuard forks st on a guard condition: taken is the state where
// the guard holds (pathCond extended), fallthru where it does not. Either
// may be nil when infeasible. An unconditional guard yields taken = st.
func (e *Engine) splitOnGuard(st *State, guard *expr.Expr) (taken, fallthru *State, err error) {
	if guard == nil || guard.Kind() == expr.KBoolConst && guard.ConstVal() == 1 {
		return st, nil, nil
	}
	if guard.Kind() == expr.KBoolConst { // constant false
		return nil, st, nil
	}
	e.rec.fork(st.PC, 1)
	t0 := e.rec.clock()
	m, known := st.model, len(st.PathCond)
	sat, model, err := e.feasible(m, known, append(st.PathCond, guard))
	if err != nil {
		return nil, nil, err
	}
	if sat {
		taken = st.clone(e.nextID)
		e.nextID++
		taken.appendCond(guard)
		taken.model = model
		e.rec.event("fork", taken.ID, st.PC, func() string { return fmt.Sprintf("guard taken, parent=%d", st.ID) })
	} else {
		e.rec.infeasibleSide(st.PC)
	}
	neg := e.B.BoolNot(guard)
	sat, model, err = e.feasible(m, known, append(st.PathCond, neg))
	if err != nil {
		return nil, nil, err
	}
	if sat {
		st.appendCond(neg)
		st.model = model
		fallthru = st
	} else {
		e.rec.infeasibleSide(st.PC)
	}
	e.rec.span("branch", st, t0, func() string {
		return fmt.Sprintf("guard: taken=%v fallthru=%v", taken != nil, fallthru != nil)
	})
	return taken, fallthru, nil
}

// feasible checks satisfiability of cond, whose first known conjuncts
// the parent's model m satisfies, and returns the model that proved it
// feasible. It treats solver budget or deadline exhaustion as feasible
// with no model (sound for bug finding: we never prune a path we are
// unsure about, at the cost of possibly exploring dead ones). The
// decision routes through the shared degradation policy so every
// over-approximation is counted by cause.
func (e *Engine) feasible(m expr.Env, known int, cond []*expr.Expr) (bool, expr.Env, error) {
	r, err := e.Solver.CheckUnder(m, known, cond...)
	deg, err := e.degradeUnknown(err, DegradeBranchBudget, DegradeBranchDeadline)
	if deg {
		return true, nil, nil
	}
	if err != nil {
		return false, nil, err
	}
	if r == smt.Sat {
		return true, e.Solver.Model(), nil
	}
	return r != smt.Unsat, nil, nil
}

// trap implements the shared system-call convention symbolically.
func (e *Engine) trap(st *State, code *expr.Expr, pc uint64) *State {
	if !code.IsConst() {
		st.Fault = "symbolic trap code"
		return st.done(StatusFault)
	}
	switch code.ConstVal() {
	case 0: // exit
		return st.done(StatusExit)
	case 1: // read one input byte
		ret := e.Arch.Reg("sysret")
		if ret == nil {
			st.Fault = "architecture has no sysret alias"
			return st.done(StatusFault)
		}
		if st.inputCount < e.Opts.InputBytes {
			in := e.B.Var(8, e.inputName(st.inputCount))
			st.inputCount++
			st.SetReg(ret, e.B.ZExt(in, ret.Width))
		} else {
			st.SetReg(ret, e.B.Const(ret.Width, bv.Mask(ret.Width)))
		}
		return st
	case 2: // write one output byte
		arg := e.Arch.Reg("sysarg")
		if arg == nil {
			st.Fault = "architecture has no sysarg alias"
			return st.done(StatusFault)
		}
		st.Output = append(st.Output, e.B.Extract(st.Reg(arg), 7, 0))
		return st
	}
	st.Fault = fmt.Sprintf("unknown trap code %d", code.ConstVal())
	return st.done(StatusFault)
}

// resolvePC turns the (possibly symbolic) post-instruction pc into
// concrete successor states. The pc register already holds the
// fall-through continuation when the semantics did not branch.
func (e *Engine) resolvePC(st *State, dec decoder.Decoded, insAddr uint64, disasm string) ([]*State, error) {
	pcv := st.Reg(e.Arch.PC)
	if targets, ok := e.splitTargets(pcv, nil); ok {
		return e.forkTargets(st, targets, dec, insAddr)
	}
	// General symbolic target: tell the checkers, then enumerate models.
	ctx := &CheckCtx{Engine: e, State: st, PC: insAddr, Insn: disasm}
	for _, c := range e.checkers {
		c.Jump(ctx, pcv)
	}
	return e.enumerateJump(st, pcv)
}

// target is one candidate pc value guarded by a chain of branch
// conditions.
type target struct {
	addr  uint64
	conds []*expr.Expr
}

// splitTargets decomposes an ite-tree over constant leaves into guarded
// targets; ok is false when the tree has a non-constant leaf.
func (e *Engine) splitTargets(pcv *expr.Expr, conds []*expr.Expr) ([]target, bool) {
	switch {
	case pcv.IsConst():
		return []target{{addr: pcv.ConstVal(), conds: append([]*expr.Expr(nil), conds...)}}, true
	case pcv.Kind() == expr.KITE:
		c := pcv.Arg(0)
		thenTs, ok := e.splitTargets(pcv.Arg(1), append(conds, c))
		if !ok {
			return nil, false
		}
		elseTs, ok := e.splitTargets(pcv.Arg(2), append(append([]*expr.Expr(nil), conds...), e.B.BoolNot(c)))
		if !ok {
			return nil, false
		}
		return append(thenTs, elseTs...), true
	default:
		return nil, false
	}
}

// forkTargets creates one successor per feasible target. dec and
// insAddr identify the branching instruction for coverage: a target is
// the taken outcome when it differs from the fall-through continuation,
// and a polarity counts for the solver layer only when a feasibility
// check actually discharged it.
func (e *Engine) forkTargets(st *State, ts []target, dec decoder.Decoded, insAddr uint64) ([]*State, error) {
	var out []*State
	if len(ts) > 1 {
		e.rec.fork(insAddr, int64(len(ts)-1))
	}
	cont := bv.Trunc(insAddr+uint64(dec.Len), e.Arch.Bits)
	baseSig := st.sig
	m, known := st.model, len(st.PathCond)
	for i, t := range ts {
		cond := append(append([]*expr.Expr(nil), st.PathCond...), t.conds...)
		taken := bv.Trunc(t.addr, e.Arch.Bits) != cont
		checked := len(ts) > 1 || len(t.conds) > 0
		model := m // an unchecked target adds no condition
		if checked {
			t0 := e.rec.clock()
			ok, proved, err := e.feasible(m, known, cond)
			if err != nil {
				return nil, err
			}
			model = proved
			e.rec.span("branch", st, t0, func() string { return fmt.Sprintf("target %#x: feasible=%v", t.addr, ok) })
			if !ok {
				e.rec.infeasibleSide(insAddr)
				continue
			}
			e.cov.Branch(cover.LSolver, dec.Insn, taken)
		}
		e.cov.Branch(cover.LSym, dec.Insn, taken)
		var child *State
		if i == len(ts)-1 {
			child = st // reuse the parent for the last side
			if len(ts) > 1 {
				child.Depth++
			}
		} else {
			child = st.clone(e.nextID)
			e.nextID++
		}
		child.PathCond = cond
		child.model = model
		sig := baseSig
		for _, c := range t.conds {
			sig = expr.MixHash(sig, expr.Hash(c))
		}
		child.sig = sig
		child.PC = bv.Trunc(t.addr, e.Arch.Bits)
		e.rec.succ(insAddr, st, child, func() string { return fmt.Sprintf("branch to %#x, parent=%d", t.addr, st.ID) })
		out = append(out, child)
	}
	return out, nil
}

// maxJumpTargets bounds the solver models enumerateJump draws for one
// symbolic jump target.
const maxJumpTargets = 4

// enumerateJump concretizes a general symbolic jump target by repeated
// solver models, up to maxJumpTargets.
func (e *Engine) enumerateJump(st *State, pcv *expr.Expr) ([]*State, error) {
	if e.concEnv != nil {
		// Concolic replay: follow the concrete target only.
		addr := expr.Eval(pcv, e.concEnv)
		st.appendCond(e.B.Eq(pcv, e.B.Const(pcv.Width(), addr)))
		st.PC = addr
		return []*State{st}, nil
	}
	var out []*State
	excl := append([]*expr.Expr(nil), st.PathCond...)
	for i := 0; i < maxJumpTargets; i++ {
		t0 := e.rec.clock()
		r, err := e.Solver.Check(excl...)
		e.rec.span("jump-enum", st, t0, func() string { return fmt.Sprintf("model %d: %v", i, r) })
		deg, err := e.degradeUnknown(err, DegradeJumpEnumBudget, DegradeJumpEnumDeadline)
		if err != nil {
			return nil, err
		}
		if deg || r != smt.Sat {
			// Budget/deadline exhaustion stops the enumeration with the
			// targets found so far (over-approximation by truncation).
			break
		}
		addr := e.Solver.Value(pcv)
		eq := e.B.Eq(pcv, e.B.Const(pcv.Width(), addr))
		child := st.clone(e.nextID)
		e.nextID++
		child.appendCond(eq)
		child.PC = addr
		out = append(out, child)
		excl = append(excl, e.B.BoolNot(eq))
		e.rec.succ(st.PC, st, child, func() string { return fmt.Sprintf("jump target %#x, parent=%d", addr, st.ID) })
	}
	e.rec.fork(st.PC, int64(len(out)))
	if len(out) == 0 {
		st.Fault = "unresolvable symbolic jump target"
		return []*State{st.done(StatusFault)}, nil
	}
	return out, nil
}
