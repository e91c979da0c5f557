// Fault isolation and graceful degradation (docs/robustness.md).
//
// Every path step runs under a recover boundary (safeStep) that
// converts panics — from a hostile ADL, a decoder bug, an injected
// fault — into a typed PathFault on that one path: the path dies with
// StatusPanic, its siblings and the run continue. Solver budget and
// deadline exhaustion route through one degradation policy point
// (degradeUnknown) that over-approximates instead of erroring, with
// every decision counted per cause in Stats.Degraded and the
// degraded_total metric series.

package core

import (
	"fmt"
	"runtime/debug"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/rtl"
	"repro/internal/smt"
)

// PathFault describes a panic recovered at a per-path boundary. The
// layer names the pipeline stage the panic was attributed to (the
// injection site for injected faults, the evaluator for typed rtl
// errors, the recover boundary otherwise).
type PathFault struct {
	PC    uint64
	Layer string // one of faultLayers
	Msg   string
	Stack string // truncated runtime stack at the recovery point
}

func (f PathFault) String() string {
	return fmt.Sprintf("path fault at pc=%#x layer=%s: %s", f.PC, f.Layer, f.Msg)
}

// faultLayers are the fault-attribution layer names, aligned with the
// faultinject.Site strings and the fault_paths_total metric labels.
var faultLayers = [...]string{"decode", "translate", "sym", "conc", "solver", "mem"}

func faultLayerIndex(layer string) int {
	for i, l := range faultLayers {
		if l == layer {
			return i
		}
	}
	return 2 // "sym", the default boundary layer
}

// DegradeCause enumerates the reasons the engine degraded gracefully —
// over-approximated or killed one state — instead of failing a run.
type DegradeCause int

// Degradation causes. Each budget/deadline pair names the query site.
const (
	DegradeBranchBudget     DegradeCause = iota // feasibility check hit the conflict budget: both sides kept
	DegradeBranchDeadline                       // feasibility check hit the wall-clock deadline: both sides kept
	DegradeJumpEnumBudget                       // jump-target enumeration stopped at the conflict budget
	DegradeJumpEnumDeadline                     // jump-target enumeration stopped at the deadline
	DegradeConcBudget                           // address concretization hit the conflict budget: evaluated fallback address
	DegradeConcDeadline                         // address concretization hit the deadline: evaluated fallback address
	DegradeFlipBudget                           // concolic branch-flip solve abandoned at the conflict budget
	DegradeFlipDeadline                         // concolic branch-flip solve abandoned at the deadline
	DegradeStateBudget                          // state exceeded Options.MaxStateTerms and was killed
	NumDegradeCauses
)

func (c DegradeCause) String() string {
	switch c {
	case DegradeBranchBudget:
		return "branch-budget"
	case DegradeBranchDeadline:
		return "branch-deadline"
	case DegradeJumpEnumBudget:
		return "jump-enum-budget"
	case DegradeJumpEnumDeadline:
		return "jump-enum-deadline"
	case DegradeConcBudget:
		return "concretize-budget"
	case DegradeConcDeadline:
		return "concretize-deadline"
	case DegradeFlipBudget:
		return "flip-budget"
	case DegradeFlipDeadline:
		return "flip-deadline"
	case DegradeStateBudget:
		return "state-terms"
	}
	return "unknown"
}

// DegradeStats counts graceful degradations by cause for one run.
type DegradeStats [NumDegradeCauses]int64

// Add accumulates o into d (used to merge per-worker stats).
func (d *DegradeStats) Add(o DegradeStats) {
	for i, n := range o {
		d[i] += n
	}
}

// Total sums all causes.
func (d DegradeStats) Total() int64 {
	var t int64
	for _, n := range d {
		t += n
	}
	return t
}

// degradeUnknown is the single policy point for unknown solver results.
// A budget or deadline failure is absorbed — counted under the caller's
// cause and reported as degraded=true so the caller over-approximates
// (keep both branch sides, stop enumerating, concretize by evaluation).
// Any other error is the caller's to propagate.
func (e *Engine) degradeUnknown(err error, budget, deadline DegradeCause) (degraded bool, rerr error) {
	switch err {
	case nil:
		return false, nil
	case smt.ErrBudget:
		e.rec.degrade(budget)
		return true, nil
	case smt.ErrDeadline:
		e.rec.degrade(deadline)
		return true, nil
	}
	return false, err
}

// maxFaultStack bounds the stack capture per fault; reports stay small
// even under heavy injection.
const maxFaultStack = 4096

func stackTrace() string {
	st := debug.Stack()
	if len(st) > maxFaultStack {
		st = st[:maxFaultStack]
	}
	return string(st)
}

// layerOf attributes a recovered panic value to a fault layer: injected
// faults name their site (and are accounted as surfaced, exactly once,
// here), typed rtl errors name the translate layer, anything else gets
// the recover boundary's own layer.
func layerOf(r any, boundary string) string {
	if f, ok := faultinject.Observe(r); ok {
		return f.Site.String()
	}
	if _, ok := r.(*rtl.UnsupportedError); ok {
		return "translate"
	}
	return boundary
}

// recordFault appends a fault to the run report and records it; st is
// the path it killed, nil for a fault outside any path.
func (e *Engine) recordFault(pf PathFault, st *State) {
	e.report.Faults = append(e.report.Faults, pf)
	e.rec.pathFault(pf, st)
}

// recoverFault converts a panic recovered at the per-path boundary into
// a dead path: the state terminates with StatusPanic carrying the
// PathFault, and the run continues with its siblings.
func (e *Engine) recoverFault(st *State, r any) {
	pf := PathFault{
		PC:    st.PC,
		Layer: layerOf(r, "sym"),
		Msg:   fmt.Sprint(r),
		Stack: stackTrace(),
	}
	st.PathFault = &pf
	st.Fault = pf.Msg
	st.done(StatusPanic)
	e.recordFault(pf, st)
}

// safeStep is the per-path fault boundary: it runs one engine step and
// converts any panic underneath — decoder, translator, state update,
// solver, memory, checker, injected — into a StatusPanic termination of
// that one state. It also enforces the per-state term budget of the
// resource governor.
func (e *Engine) safeStep(st *State) (children []*State, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.recoverFault(st, r)
			children, err = []*State{st}, nil
		}
	}()
	e.inject.Fire(faultinject.SiteSymStep)
	t0 := e.rec.stepBegin(st.PC)
	children, err = e.step(st)
	e.rec.stepEnd(st.PC, t0)
	if err != nil {
		return nil, err
	}
	// A term-budget kill is a degradation plus a StatusKilled path end
	// (the caller finishes c), not a StatesKilled.
	if e.Opts.MaxStateTerms > 0 && e.concEnv == nil {
		for _, c := range children {
			if !c.Done && c.termSize() > e.Opts.MaxStateTerms {
				e.rec.degrade(DegradeStateBudget)
				c.Fault = fmt.Sprintf("state term budget exceeded (%d > %d)", c.termSize(), e.Opts.MaxStateTerms)
				c.done(StatusKilled)
			}
		}
	}
	return children, nil
}

// termSize is the governor's symbolic-footprint proxy for one state:
// path-condition terms plus symbolically written memory cells.
func (st *State) termSize() int {
	return len(st.PathCond) + st.mem.OverlaySize()
}

// checkProtected runs a solver query that happens outside the per-path
// step boundary (the concolic flip solves) under its own recover
// boundary: a panic is recorded as a run-level fault and reported as
// Unknown, which the caller already treats as "skip this flip".
func (e *Engine) checkProtected(q []*expr.Expr) (res smt.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			e.recordFault(PathFault{
				Layer: layerOf(r, "solver"),
				Msg:   fmt.Sprint(r),
				Stack: stackTrace(),
			}, nil)
			res, err = smt.Unknown, nil
		}
	}()
	return e.Solver.Check(q...)
}

// faultPathsHelp is shared by every resolver of the fault_paths_total
// series (engine, emulator, difftest) so registry get-or-create always
// sees the same help text.
const faultPathsHelp = "Paths or runs ended by a recovered panic, by fault layer"
