package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/expr"
	"repro/internal/smt"
)

// Concolic execution (generational search in the SAGE style): run the
// program along the single path a concrete input induces while collecting
// the symbolic branch conditions, then negate condition suffixes and ask
// the solver for inputs that drive execution down the other sides. The
// checkers run during every concrete-path replay, so findings come with
// the input that was actually being executed.

// ConcolicPath is one executed input with its observations.
type ConcolicPath struct {
	Input  []byte
	Status Status
	Fault  string
	Output []byte
	Steps  int64
	NewPCs int // instructions covered for the first time
}

// ConcolicReport is the outcome of a generational search.
type ConcolicReport struct {
	Paths  []ConcolicPath
	Bugs   []Bug
	Solved int   // inputs derived from solver models
	Stats  Stats // engine counters accumulated over all replays

	// Faults lists every panic recovered during the search: per-replay
	// path faults plus flip-solve recoveries (docs/robustness.md).
	Faults []PathFault
}

// Concolic runs generational concolic testing from the seed input for at
// most maxRuns concrete executions. Inputs are explored in generation
// order, preferring those derived from deeper branch flips first (the
// classic heuristic).
func (e *Engine) Concolic(seed []byte, maxRuns int) (*ConcolicReport, error) {
	if err := e.claim(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	defer e.rec.fold()
	rep := &ConcolicReport{}
	tried := map[string]bool{}
	// explored records branch-condition prefixes already executed or
	// queued, so sibling paths are not re-derived (SAGE's path dedup).
	explored := map[string]bool{}

	queue := [][]byte{normalizeInput(seed, e.Opts.InputBytes)}
	tried[string(queue[0])] = true

	for len(queue) > 0 && len(rep.Paths) < maxRuns {
		if canceled(e.Opts.Cancel) {
			break // partial report: runs completed so far stand
		}
		input := queue[0]
		queue = queue[1:]

		path, conds, err := e.runConcolic(input)
		if err != nil {
			return nil, err
		}
		rep.Paths = append(rep.Paths, *path)

		// Record this path's branch prefixes as explored.
		var sig strings.Builder
		for _, c := range conds {
			fmt.Fprintf(&sig, "%d,", c.ID())
			explored[sig.String()] = true
		}

		// Generational expansion: for every branch i on the path, solve
		// prefix ∧ ¬cond_i, unless the flipped prefix was already taken.
		var newInputs [][]byte
		for i := len(conds) - 1; i >= 0; i-- {
			neg := e.B.BoolNot(conds[i])
			var key strings.Builder
			for _, c := range conds[:i] {
				fmt.Fprintf(&key, "%d,", c.ID())
			}
			fmt.Fprintf(&key, "%d,", neg.ID())
			if explored[key.String()] {
				continue
			}
			explored[key.String()] = true
			q := append(append([]*expr.Expr(nil), conds[:i]...), neg)
			res, err := e.checkProtected(q)
			if _, err = e.degradeUnknown(err, DegradeFlipBudget, DegradeFlipDeadline); err != nil {
				return nil, err
			}
			if res != smt.Sat {
				// Unsat, budget, deadline or a recovered panic: this
				// flip is abandoned; the search continues.
				continue
			}
			in := normalizeInput(e.InputFromModel(e.Solver.Model()), e.Opts.InputBytes)
			if !tried[string(in)] {
				tried[string(in)] = true
				rep.Solved++
				newInputs = append(newInputs, in)
			}
		}
		queue = append(queue, newInputs...)
	}
	rep.Stats = e.report.Stats
	rep.Stats.Solver = e.Solver.Stats
	rep.Stats.Coverage = e.visits.distinct()
	rep.Stats.WallTime = time.Since(t0)
	rep.Faults = append(rep.Faults, e.report.Faults...)
	rep.Bugs = append(rep.Bugs, e.report.Bugs...)
	sort.Slice(rep.Bugs, func(i, j int) bool { return rep.Bugs[i].PC < rep.Bugs[j].PC })
	return rep, nil
}

// normalizeInput pads or truncates an input to the engine's input budget
// so that the dedup set compares like with like.
func normalizeInput(in []byte, n int) []byte {
	out := make([]byte, n)
	copy(out, in)
	return out
}

// runConcolic executes the single path induced by the concrete input,
// returning the collected symbolic branch conditions in path order.
func (e *Engine) runConcolic(input []byte) (*ConcolicPath, []*expr.Expr, error) {
	before := e.visits.distinct()
	end, env, err := e.followConcrete(input,
		"core: concolic replay is ambiguous at %#x", "core: concolic replay lost the concrete path at %#x")
	if err != nil {
		return nil, nil, err
	}
	e.rec.pathEnd(end)
	out := &ConcolicPath{Input: input, NewPCs: e.visits.distinct() - before}
	out.Status = end.Status
	out.Fault = end.Fault
	out.Steps = end.Steps
	for _, o := range end.Output {
		out.Output = append(out.Output, byte(expr.Eval(o, env)))
	}
	return out, end.PathCond, nil
}

// followConcrete steps the single path the concrete input induces, from
// the initial state to its end, and returns the final state with the
// input environment. At each step it keeps the unique child consistent
// with the input; siblings belong to other inputs and are dropped.
// While it runs, address concretization and jump enumeration are pinned
// to the input. ambiguous and lost are the caller's error formats, given the PC, for
// a step that leaves two consistent children or none.
func (e *Engine) followConcrete(input []byte, ambiguous, lost string) (*State, expr.Env, error) {
	env := expr.Env{}
	for i, b := range input {
		env[e.inputName(i)] = uint64(b)
	}
	st := e.initialState()
	e.concEnv = env
	defer func() { e.concEnv = nil }()

	for {
		prevLen := len(st.PathCond)
		children, err := e.safeStep(st)
		if err != nil {
			return nil, nil, err
		}
		var next *State
		for _, c := range children {
			if !expr.EvalAll(c.PathCond[prevLen:], env) {
				continue
			}
			if next != nil {
				return nil, nil, fmt.Errorf(ambiguous, st.PC)
			}
			next = c
		}
		if next == nil {
			return nil, nil, fmt.Errorf(lost, st.PC)
		}
		if next.Done {
			return next, env, nil
		}
		st = next
	}
}
