package core

import "repro/internal/expr"

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
	if err := e.claim(); err != nil {
		return nil, err
	}
	defer e.rec.fold()
	end, env, err := e.followConcrete(input,
		"core: concrete replay is ambiguous at %#x", "core: concrete replay lost the path at %#x")
	if err != nil {
		return nil, err
	}
	r := &Replay{
		Status: end.Status,
		Fault:  end.Fault,
		EndPC:  end.PC,
		Steps:  end.Steps,
		Regs:   make([]uint64, len(end.regs)),
		Mem:    make(map[uint64]byte, len(end.mem.base)+end.mem.OverlaySize()),
	}
	for _, o := range end.Output {
		r.Output = append(r.Output, byte(expr.Eval(o, env)))
	}
	for i, rx := range end.regs {
		r.Regs[i] = expr.Eval(rx, env)
	}
	for a, b := range end.mem.base {
		r.Mem[a] = b
	}
	end.mem.each(func(a uint64, v *expr.Expr) { r.Mem[a] = byte(expr.Eval(v, env)) })
	return r, nil
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
