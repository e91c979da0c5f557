package core

import (
	"fmt"
	"time"

	"repro/internal/adl"
	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/expr"
	"repro/internal/rtl"
	"repro/internal/smt"
)

// ckptDutyFactor bounds the checkpoint duty cycle: the gap until the
// next checkpoint is at least this multiple of the previous one's
// synchronous cost, so snapshot building consumes at most ~1/128 <1%
// of a serial run's wall time no matter how large the path list grows.
const ckptDutyFactor = 128

// Run explores the program from its entry point and returns the report.
// With Options.Workers > 1 the exploration is distributed over a worker
// pool (see parallel.go); otherwise the classic serial loop runs.
func (e *Engine) Run() (*Report, error) {
	if e.Opts.Workers > 1 {
		if e.Opts.Resume != nil {
			return nil, fmt.Errorf("core: Resume requires a serial run (Workers = %d)", e.Opts.Workers)
		}
		return e.runParallel()
	}
	t0 := time.Now()
	e.report = Report{}
	e.bugSeen = newBugDedup()
	defer e.profiler.Fold(e.prof)

	var live []*State
	if e.Opts.Resume != nil {
		var err error
		if live, err = e.restore(e.Opts.Resume); err != nil {
			return nil, err
		}
	} else {
		live = []*State{e.initialState()}
	}
	ckptEvery := e.Opts.CheckpointEvery
	denseCkpt := ckptEvery < 0 // every opportunity, no governor (tests)
	if ckptEvery <= 0 {
		ckptEvery = time.Second
	}
	ckptGap := ckptEvery
	lastCkpt := t0

	for len(live) > 0 {
		if e.Opts.Checkpoint != nil && (denseCkpt || time.Since(lastCkpt) >= ckptGap) {
			tc := time.Now()
			e.Opts.Checkpoint(e.snapshot(live, time.Since(t0)))
			lastCkpt = time.Now()
			// Duty-cycle governor: a snapshot's cost grows with the
			// completed-path list, so a fixed pace would eventually
			// spend arbitrary fractions of the run on checkpointing.
			// Stretch the gap to a multiple of the last checkpoint's
			// synchronous cost instead — the overhead stays bounded
			// (~1/ckptDutyFactor) and only freshness degrades.
			ckptGap = ckptEvery
			if g := lastCkpt.Sub(tc) * ckptDutyFactor; g > ckptGap {
				ckptGap = g
			}
		}
		var killReason string
		switch {
		case e.report.Stats.PathsDone >= e.Opts.MaxPaths:
			killReason = "max-paths"
		case e.Opts.StopOnBug && len(e.report.Bugs) > 0:
			killReason = "stop-on-bug"
		case e.Opts.TimeBudget > 0 && time.Since(t0) > e.Opts.TimeBudget:
			killReason = "time-budget"
		case canceled(e.Opts.Cancel):
			killReason = "canceled"
		}
		if killReason != "" {
			e.report.Stats.StatesKilled += len(live)
			e.m.statesKilled.Add(int64(len(live)))
			if e.prof != nil {
				for _, s := range live {
					e.prof.Kill(s.PC)
				}
			}
			if e.tr != nil {
				e.tr.Event("kill", e.workerID, -1, 0,
					fmt.Sprintf("%s (%d live states)", killReason, len(live)))
			}
			break
		}
		if len(live) > e.report.Stats.MaxLiveSet {
			e.report.Stats.MaxLiveSet = len(live)
		}
		if e.m.on {
			e.m.frontierDepth.Set(int64(len(live)))
			e.m.liveMax.Max(int64(len(live)))
		}
		e.progress.setFrontier(int64(len(live)))
		var st *State
		st, live = e.pick(live)

		children, err := e.safeStep(st)
		if err != nil {
			return nil, err
		}
		for _, c := range children {
			if c.Done {
				e.finish(c)
			} else if len(live) < e.Opts.MaxStates {
				live = append(live, c)
			} else {
				e.report.Stats.StatesKilled++
				e.m.statesKilled.Inc()
				e.prof.Kill(c.PC)
				if e.tr != nil {
					e.tr.Event("kill", e.workerID, c.ID, c.PC, "max-states")
				}
			}
		}
		if e.Opts.MergeStates {
			live = e.mergeLive(live)
		}
	}
	if e.m.on {
		e.m.frontierDepth.Set(0)
	}
	e.progress.setFrontier(0)
	e.report.Stats.WallTime = e.resumedWall + time.Since(t0)
	e.report.Stats.Solver = e.Solver.Stats
	e.report.Stats.Coverage = len(e.visits)
	e.snapshotCompileStats()
	return &e.report, nil
}

func (e *Engine) initialState() *State {
	st := &State{
		ID:   e.nextID,
		regs: make([]*expr.Expr, len(e.Arch.Regs)),
		mem:  newMemory(e.Prog.Image(), bv.Mask(e.Arch.Bits)),
		PC:   e.Prog.Entry,
		home: e.B,
	}
	e.nextID++
	for i, r := range e.Arch.Regs {
		st.regs[i] = e.B.Const(r.Width, 0)
	}
	if e.Arch.SP != nil {
		st.SetReg(e.Arch.SP, e.B.Const(e.Arch.SP.Width, bv.Trunc(e.Opts.StackBase, e.Arch.SP.Width)))
	}
	if e.tr != nil {
		e.tr.Event("spawn", e.workerID, st.ID, st.PC, "entry")
	}
	return st
}

// pick removes the next state to run according to the strategy.
func (e *Engine) pick(live []*State) (*State, []*State) {
	idx := len(live) - 1 // DFS default
	switch e.Opts.Strategy {
	case BFS:
		idx = 0
	case Random:
		idx = e.rng.Intn(len(live))
	case Coverage:
		best := int64(1) << 62
		for i, s := range live {
			if v := e.visitCount(s.PC); v < best {
				best, idx = v, i
			}
		}
	}
	st := live[idx]
	live = append(live[:idx], live[idx+1:]...)
	return st, live
}

func (e *Engine) finish(st *State) {
	e.report.Stats.PathsDone++
	e.m.pathsDone.Inc()
	e.progress.addPaths(1)
	if e.tr != nil {
		detail := st.Status.String()
		if st.Fault != "" {
			detail += ": " + st.Fault
		}
		e.tr.Event("end", e.workerID, st.ID, st.PC, detail)
	}
	if st.Depth > e.report.Stats.MaxDepth {
		e.report.Stats.MaxDepth = st.Depth
	}
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

// visitCount reads the per-pc execution count, from the shared table in
// parallel runs and the engine-local map otherwise.
func (e *Engine) visitCount(pc uint64) int64 {
	if e.shVisits != nil {
		return e.shVisits.get(pc)
	}
	return e.visits[pc]
}

// recordVisit bumps the per-pc execution count. It is called exactly
// once per executed instruction (interpreted or compiled), so it also
// feeds the live-progress instruction and distinct-address counters.
func (e *Engine) recordVisit(pc uint64) {
	if e.shVisits != nil {
		if e.shVisits.inc(pc) {
			e.progress.incCovered()
		}
	} else {
		e.visits[pc]++
		if e.visits[pc] == 1 {
			e.progress.incCovered()
		}
	}
	e.progress.incInstructions()
}

func (st *State) done(status Status) *State {
	st.Done = true
	st.Status = status
	return st
}

// formatName is the encoding-format symbolization handed to the
// profiler alongside the mnemonic.
func formatName(ins *adl.Insn) string {
	if ins.Format == nil {
		return ""
	}
	return ins.Format.Name
}

// decode fetches and decodes the instruction at the state's pc, going
// through the per-address translation cache when the bytes come from the
// unmodified image.
func (e *Engine) decode(st *State) (decoder.Decoded, error) {
	maxLen := e.Arch.MaxInsnBytes()
	cacheable := !st.mem.writtenRange(st.PC, maxLen)
	if !e.Opts.NoTranslationCache && cacheable {
		if d, ok := e.xlate[st.PC]; ok {
			return d, nil
		}
	}
	buf, ok := st.mem.ConcreteFetch(st.PC, maxLen)
	if !ok {
		return decoder.Decoded{}, fmt.Errorf("symbolic instruction bytes at %#x", st.PC)
	}
	e.report.Stats.DecodeCalls++
	e.m.decodeCalls.Inc()
	e.prof.CompileMiss(st.PC)
	// Only the actual decoder call is timed: translation-cache hits (the
	// common case) must not pay for two clock reads per instruction.
	var t0 time.Time
	if e.m.on {
		t0 = time.Now()
	}
	d, err := e.Dec.Decode(buf)
	if e.m.on {
		e.m.decodeSeconds.ObserveSince(t0)
	}
	if err != nil {
		return decoder.Decoded{}, err
	}
	if !e.Opts.NoTranslationCache && cacheable {
		e.xlate[st.PC] = d
	}
	return d, nil
}

// step executes one instruction of st and returns the successor states
// (one or more on forks; completed states have Done set).
func (e *Engine) step(st *State) ([]*State, error) {
	var t0 time.Time
	if e.m.on {
		// Sampled: the two clock reads dominate the instrument cost on
		// hosts without a vDSO clock, so only every StepSampleRate-th
		// instruction is timed (the counter is per worker, not shared).
		e.m.stepTick++
		if e.m.stepTick%StepSampleRate == 0 {
			t0 = time.Now()
			defer e.m.stepSeconds.ObserveSince(t0)
		}
	}
	// Compiled execution (docs/compile.md): when the instruction bytes
	// come from the unmodified image, run through the shared cache of
	// closure-compiled units and superblocks. States whose memory
	// overlay touches the fetch window — self-modifying code — and the
	// NoCompile/NoTranslationCache ablations take the interpreter below.
	if e.compileOn() && !st.mem.writtenRange(st.PC, e.Arch.MaxInsnBytes()) {
		return e.stepCompiled(st)
	}

	dec, err := e.decode(st)
	if err != nil {
		st.Fault = err.Error()
		return []*State{st.done(StatusDecode)}, nil
	}
	e.recordVisit(st.PC)
	e.report.Stats.Instructions++
	e.m.instructions.Inc()
	e.cov.Hit(cover.LSym, dec.Insn)
	if e.prof != nil {
		e.prof.Exec(st.PC, dec.Insn.Mnemonic, formatName(dec.Insn))
	}
	st.Steps++

	insAddr := st.PC
	disasm := decoder.Disasm(dec, insAddr)

	// The pc register holds the fall-through continuation; semantic reads
	// of pc observe the instruction's own address via execCtx.ReadReg.
	pcReg := e.Arch.PC
	cont := bv.Trunc(insAddr+uint64(dec.Len), e.Arch.Bits)
	st.SetReg(pcReg, e.B.Const(pcReg.Width, cont))

	ec := &execCtx{e: e, st: st, insAddr: insAddr, disasm: disasm}
	ev := &rtl.SymEval{B: e.B, A: e.Arch, Cov: e.cov, Inject: e.inject}
	events := ev.Exec(ec, dec.Insn, dec.Ops)
	if ec.err != nil {
		return nil, ec.err
	}
	if ec.infeasible {
		// A memory concretization found the path condition unsatisfiable.
		return []*State{st.done(StatusKilled)}, nil
	}

	// Process control events in order; states may split per event.
	done, continuing, err := e.handleEvents(st, events, insAddr, disasm)
	if err != nil {
		return nil, err
	}

	out := done
	for _, c := range continuing {
		if c.Steps >= e.Opts.MaxSteps {
			out = append(out, c.done(StatusSteps))
			continue
		}
		next, err := e.resolvePC(c, dec, insAddr, disasm)
		if err != nil {
			return nil, err
		}
		out = append(out, next...)
	}
	return out, nil
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
	e.report.Stats.Forks++
	e.m.forks.Inc()
	e.progress.addForks(1)
	e.prof.Fork(st.PC, 1)
	var t0 time.Time
	if e.m.on || e.tr != nil {
		t0 = time.Now()
	}
	sat, err := e.feasible(append(st.PathCond, guard))
	if err != nil {
		return nil, nil, err
	}
	if sat {
		taken = st.clone(e.nextID)
		e.nextID++
		taken.appendCond(guard)
		if e.tr != nil {
			e.tr.Event("fork", e.workerID, taken.ID, st.PC, fmt.Sprintf("guard taken, parent=%d", st.ID))
		}
	} else {
		e.report.Stats.Infeasible++
		e.m.infeasible.Inc()
		e.prof.Infeasible(st.PC)
	}
	neg := e.B.BoolNot(guard)
	sat, err = e.feasible(append(st.PathCond, neg))
	if err != nil {
		return nil, nil, err
	}
	if sat {
		st.appendCond(neg)
		fallthru = st
	} else {
		e.report.Stats.Infeasible++
		e.m.infeasible.Inc()
		e.prof.Infeasible(st.PC)
	}
	if e.m.on {
		e.m.branchSeconds.ObserveSince(t0)
	}
	if e.tr != nil {
		e.tr.Span("branch", e.workerID, st.ID, st.PC, t0,
			fmt.Sprintf("guard: taken=%v fallthru=%v", taken != nil, fallthru != nil))
	}
	return taken, fallthru, nil
}

// feasible checks satisfiability, treating solver budget or deadline
// exhaustion as feasible (sound for bug finding: we never prune a path
// we are unsure about, at the cost of possibly exploring dead ones).
// The decision routes through the shared degradation policy so every
// over-approximation is counted by cause.
func (e *Engine) feasible(cond []*expr.Expr) (bool, error) {
	r, err := e.Solver.Check(cond...)
	deg, err := e.degradeUnknown(err, DegradeBranchBudget, DegradeBranchDeadline)
	if deg {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	return r != smt.Unsat, nil
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
		e.report.Stats.Forks += int64(len(ts) - 1)
		e.m.forks.Add(int64(len(ts) - 1))
		e.progress.addForks(int64(len(ts) - 1))
		e.prof.Fork(insAddr, int64(len(ts)-1))
	}
	cont := bv.Trunc(insAddr+uint64(dec.Len), e.Arch.Bits)
	baseSig := st.sig
	for i, t := range ts {
		cond := append(append([]*expr.Expr(nil), st.PathCond...), t.conds...)
		taken := bv.Trunc(t.addr, e.Arch.Bits) != cont
		checked := len(ts) > 1 || len(t.conds) > 0
		if checked {
			var t0 time.Time
			if e.m.on || e.tr != nil {
				t0 = time.Now()
			}
			ok, err := e.feasible(cond)
			if err != nil {
				return nil, err
			}
			if e.m.on {
				e.m.branchSeconds.ObserveSince(t0)
			}
			if e.tr != nil {
				e.tr.Span("branch", e.workerID, st.ID, st.PC,
					t0, fmt.Sprintf("target %#x: feasible=%v", t.addr, ok))
			}
			if !ok {
				e.report.Stats.Infeasible++
				e.m.infeasible.Inc()
				e.prof.Infeasible(insAddr)
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
			if e.tr != nil {
				e.tr.Event("fork", e.workerID, child.ID, st.PC,
					fmt.Sprintf("branch to %#x, parent=%d", t.addr, st.ID))
			}
		}
		child.PathCond = cond
		sig := baseSig
		for _, c := range t.conds {
			sig = expr.MixHash(sig, expr.Hash(c))
		}
		child.sig = sig
		child.PC = bv.Trunc(t.addr, e.Arch.Bits)
		e.prof.Edge(insAddr, child.PC)
		out = append(out, child)
	}
	return out, nil
}

// enumerateJump concretizes a general symbolic jump target by repeated
// solver models, up to MaxJumpTargets.
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
	for i := 0; i < e.Opts.MaxJumpTargets; i++ {
		var t0 time.Time
		if e.m.on || e.tr != nil {
			t0 = time.Now()
		}
		r, err := e.Solver.Check(excl...)
		if e.m.on {
			e.m.branchSeconds.ObserveSince(t0)
		}
		if e.tr != nil {
			e.tr.Span("jump-enum", e.workerID, st.ID, st.PC, t0,
				fmt.Sprintf("model %d: %v", i, r))
		}
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
		e.report.Stats.Forks++
		e.m.forks.Inc()
		e.progress.addForks(1)
		e.prof.Fork(st.PC, 1)
		e.prof.Edge(st.PC, addr)
		if e.tr != nil {
			e.tr.Event("fork", e.workerID, child.ID, st.PC,
				fmt.Sprintf("jump target %#x, parent=%d", addr, st.ID))
		}
	}
	if len(out) == 0 {
		st.Fault = "unresolvable symbolic jump target"
		return []*State{st.done(StatusFault)}, nil
	}
	return out, nil
}
