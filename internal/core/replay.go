package core

import (
	"fmt"

	"repro/internal/expr"
)

// Replay is the fully concrete outcome of executing one input through the
// symbolic engine: every symbolic end-state value evaluated under the
// input environment. It is the engine-side half of a differential
// comparison against the generated concrete emulator (internal/conc).
type Replay struct {
	Status Status
	Fault  string
	EndPC  uint64
	Steps  int64
	Output []byte
	Regs   []uint64        // final register values, indexed by Reg.Num
	Mem    map[uint64]byte // final memory image (base plus evaluated writes)
}

// ReplayConcrete executes the single path induced by the concrete input
// and returns the concretized end state. Like Concolic it pins address
// concretization and jump enumeration to the input environment, so the
// engine follows exactly the path the concrete machine would take; unlike
// Run it never invokes the solver to pick models.
//
// The input is taken as-is: it should be exactly Options.InputBytes long,
// or the engine's extra symbolic input bytes will evaluate to zero while
// a concrete reference machine reports EOF instead.
func (e *Engine) ReplayConcrete(input []byte) (*Replay, error) {
	env := expr.Env{}
	for i, b := range input {
		env[e.inputName(i)] = uint64(b)
	}
	st := e.initialState()
	e.concEnv = env
	defer func() { e.concEnv = nil }()
	defer e.rec.fold()

	for {
		prevLen := len(st.PathCond)
		children, err := e.safeStep(st)
		if err != nil {
			return nil, err
		}
		// Follow the unique child consistent with the concrete input.
		var next *State
		for _, c := range children {
			if !consistent(c.PathCond[prevLen:], env) {
				continue
			}
			if next != nil {
				return nil, fmt.Errorf("core: concrete replay is ambiguous at %#x", st.PC)
			}
			next = c
		}
		if next == nil {
			return nil, fmt.Errorf("core: concrete replay lost the path at %#x", st.PC)
		}
		if next.Done {
			r := &Replay{
				Status: next.Status,
				Fault:  next.Fault,
				EndPC:  next.PC,
				Steps:  next.Steps,
				Regs:   make([]uint64, len(next.regs)),
				Mem:    make(map[uint64]byte, len(next.mem.base)+next.mem.OverlaySize()),
			}
			for _, o := range next.Output {
				r.Output = append(r.Output, byte(expr.Eval(o, env)))
			}
			for i, rx := range next.regs {
				r.Regs[i] = expr.Eval(rx, env)
			}
			for a, b := range next.mem.base {
				r.Mem[a] = b
			}
			next.mem.each(func(a uint64, v *expr.Expr) { r.Mem[a] = byte(expr.Eval(v, env)) })
			return r, nil
		}
		st = next
	}
}

// EndState is the symbolic machine state at the end of a completed path,
// captured when Options.CaptureEndState is set. Registers and memory
// writes are expressions over the symbolic input; Base is the shared
// concrete program image underneath the writes.
type EndState struct {
	Regs []*expr.Expr
	Mem  map[uint64]*expr.Expr // symbolic overlay (written bytes)
	Base map[uint64]byte       // concrete image under the overlay (shared)
}

// EvalRegs evaluates the end-state registers under a concrete input
// environment.
func (s *EndState) EvalRegs(env expr.Env) []uint64 {
	out := make([]uint64, len(s.Regs))
	for i, r := range s.Regs {
		out[i] = expr.Eval(r, env)
	}
	return out
}

// EvalMem evaluates the end-state memory under a concrete input
// environment: the base image with every symbolic write concretized.
func (s *EndState) EvalMem(env expr.Env) map[uint64]byte {
	out := make(map[uint64]byte, len(s.Base)+len(s.Mem))
	for a, b := range s.Base {
		out[a] = b
	}
	for a, v := range s.Mem {
		out[a] = byte(expr.Eval(v, env))
	}
	return out
}
