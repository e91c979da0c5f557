package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/expr"
	"repro/internal/faultinject"
)

// Per-state models (state.go): every model a state carries satisfies
// its path condition, a side decided under a degraded solver answer
// carries none, and a fork from a state without a model is decided by
// the solver alone.

// ladderEngine returns an engine over a k-branch tiny32 ladder: each
// branch compares one fresh input byte, so both sides are feasible.
func ladderEngine(t *testing.T, k int, opts Options) *Engine {
	t.Helper()
	var src strings.Builder
	src.WriteString("_start:\n\tli r3, 0\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&src, "\ttrap 1\n\tli r2, %d\n\tbltu r1, r2, skip%d\n\taddi r3, r3, 1\nskip%d:\n", 64+i, i, i)
	}
	src.WriteString("\tmov r1, r3\n\ttrap 2\n\ttrap 0\n")
	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("ladder.s", src.String())
	if err != nil {
		t.Fatal(err)
	}
	opts.InputBytes = k
	e := NewEngine(a, p, opts)
	e.bugSeen = newBugDedup()
	return e
}

// stepEvent is one step of exploreBFS: the stepped state's model, read
// before the step, and what the step produced and counted.
type stepEvent struct {
	st        *State
	model     expr.Env
	children  []*State
	forked    bool
	modelHits int64 // queries the step answered from a model
	degraded  int64 // branch sides the step decided under a budget fault
}

// exploreBFS runs e's program to completion breadth-first, as Run's loop
// does, merging the live set after every step when MergeStates is on.
// It calls onStep for every step and onMerge for every merged state, and
// fails the test when a live state carries a model that falsifies its
// path condition.
func exploreBFS(t *testing.T, e *Engine, onStep func(stepEvent), onMerge func(*State)) {
	t.Helper()
	live := []*State{e.initialState()}
	for len(live) > 0 {
		st := live[0]
		live = live[1:]
		ev := stepEvent{st: st, model: st.model}
		h0, d0, f0 := e.Solver.Stats.ModelHits, e.report.Stats.Degraded[DegradeBranchBudget], e.report.Stats.Forks
		children, err := e.step(st)
		if err != nil {
			t.Fatal(err)
		}
		ev.children = children
		ev.forked = e.report.Stats.Forks != f0
		ev.modelHits = e.Solver.Stats.ModelHits - h0
		ev.degraded = e.report.Stats.Degraded[DegradeBranchBudget] - d0
		onStep(ev)
		for _, c := range children {
			if !c.Done {
				live = append(live, c)
			}
		}
		if e.Opts.MergeStates {
			before := make(map[*State]bool, len(live))
			for _, s := range live {
				before[s] = true
			}
			live = e.mergeLive(live)
			for _, s := range live {
				if !before[s] {
					onMerge(s)
				}
			}
		}
		for _, s := range live {
			if s.model != nil && !expr.EvalAll(s.PathCond, s.model) {
				t.Fatalf("state %d: model %v falsifies its path condition %v", s.ID, s.model, s.PathCond)
			}
		}
	}
}

// TestNoModelHitAfterDegradedSide: under injected budget faults, a
// branch side the solver did not decide carries no model, so no query
// of a fork from it is answered by a model; every decided side carries
// one.
func TestNoModelHitAfterDegradedSide(t *testing.T) {
	inj := faultinject.New(5, 4).Enable(faultinject.SiteSolver, faultinject.KindBudget)
	e := ladderEngine(t, 7, Options{MaxPaths: 1 << 7, Inject: inj})
	var degraded, hits, fromDegraded int64
	exploreBFS(t, e, func(ev stepEvent) {
		if ev.model == nil && ev.forked {
			fromDegraded++
			if ev.modelHits != 0 {
				t.Errorf("a fork from a state without a model answered %d queries from a model", ev.modelHits)
			}
		}
		if !ev.forked {
			return
		}
		degraded += ev.degraded
		hits += ev.modelHits
		var bare int64
		for _, c := range ev.children {
			if c.model == nil {
				bare++
			}
		}
		if bare != ev.degraded {
			t.Errorf("fork left %d sides without a model, %d sides were degraded", bare, ev.degraded)
		}
	}, nil)
	if degraded == 0 || hits == 0 || fromDegraded == 0 {
		t.Fatalf("degraded sides %d, model hits %d, forks from degraded sides %d: want all nonzero (fired %d)",
			degraded, hits, fromDegraded, inj.Fired(faultinject.SiteSolver, faultinject.KindBudget))
	}
}

// TestMergedStateKeepsModel: a merged state keeps its first state's
// model, which satisfies the merged disjunction, and the next fork from
// it is answered from that model on one side.
func TestMergedStateKeepsModel(t *testing.T) {
	e := ladderEngine(t, 6, Options{MaxPaths: 1 << 6, MergeStates: true})
	unforked := map[*State]bool{} // merged states not yet forked
	var merges, forks, hits int64
	exploreBFS(t, e, func(ev stepEvent) {
		if unforked[ev.st] && ev.forked {
			delete(unforked, ev.st)
			forks++
			hits += ev.modelHits
		}
	}, func(s *State) {
		if s.model == nil {
			t.Errorf("merged state %d has no model", s.ID)
		}
		merges++
		unforked[s] = true
	})
	if merges == 0 || forks == 0 {
		t.Fatalf("%d merged states, %d forks from them: want both nonzero", merges, forks)
	}
	if hits != forks {
		t.Errorf("forks from merged states answered %d queries from their models, want one per fork (%d)", hits, forks)
	}
}

// TestAppendCondDropsModel: a condition appended outside a branch check
// (address concretization, jump enumeration) need not hold under the
// state's model, so the model is dropped and the next fork is decided
// by the solver.
func TestAppendCondDropsModel(t *testing.T) {
	e := ladderEngine(t, 1, Options{})
	st := e.initialState()
	x := e.B.Var(8, e.inputName(0))
	st.appendCond(e.B.Eq(x, e.B.Const(8, 5))) // the initial empty model has x = 0
	taken, fallthru, err := e.splitOnGuard(st, e.B.ULt(x, e.B.Const(8, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if taken == nil || fallthru != nil {
		t.Fatalf("taken %v, fallthru %v: want only the taken side", taken, fallthru)
	}
	if e.Solver.Stats.ModelHits != 0 {
		t.Errorf("%d queries answered from a model the appended condition may falsify", e.Solver.Stats.ModelHits)
	}
	if taken.model == nil || !expr.EvalAll(taken.PathCond, taken.model) {
		t.Errorf("taken side's model %v does not satisfy %v", taken.model, taken.PathCond)
	}
}
