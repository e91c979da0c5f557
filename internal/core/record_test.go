package core_test

import (
	"sync/atomic"
	"testing"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/profile"
)

// cancelAtDiv is a checker that closes ch at the at-th division any
// worker observes: a cancellation at a fixed point of the exploration.
type cancelAtDiv struct {
	n, at int64
	ch    chan struct{}
}

func newCancelAtDiv(at int64) *cancelAtDiv { return &cancelAtDiv{at: at, ch: make(chan struct{})} }

func (c *cancelAtDiv) Name() string { return "cancel-at-div" }
func (c *cancelAtDiv) Div(*core.CheckCtx, *expr.Expr) {
	if atomic.AddInt64(&c.n, 1) == c.at {
		close(c.ch)
	}
}
func (c *cancelAtDiv) MemAccess(*core.CheckCtx, *expr.Expr, uint, bool) {}
func (c *cancelAtDiv) Jump(*core.CheckCtx, *expr.Expr)                  {}

// TestViewsMatchStats: Stats, the live Progress block, the engine_*
// registry counters and the folded profile are views of one event
// recorder, so they must agree exactly — serial and parallel, with kills
// by every stop of the exploration loop (MaxPaths, MaxStates, StopOnBug
// and Cancel, each at one and at four workers), with term-budget kills
// (a degradation plus a StatusKilled path end, never a StatesKilled),
// and across a checkpoint resume. Cache hits include the queries
// answered from a state's model.
func TestViewsMatchStats(t *testing.T) {
	ladder := func(k int) string { return harness.BranchLadder("tiny32", k) }
	for _, tc := range []struct {
		name    string
		src     string
		opts    core.Options
		resume  bool // run from a mid-run checkpoint of the same options
		killed  bool // some live state must be dropped by a budget
		degrade bool // some state must hit the term budget
		checks  bool // attach every checker
		cancel  bool // cancel the run at its fourth division
	}{
		{name: "serial", src: ladder(7), opts: core.Options{InputBytes: 7, MaxPaths: 5000}},
		{name: "parallel", src: ladder(7), opts: core.Options{InputBytes: 7, MaxPaths: 5000, Workers: 4}},
		{name: "max-paths-serial", src: ladder(7), opts: core.Options{InputBytes: 7, MaxPaths: 20}, killed: true},
		{name: "max-paths-parallel", src: ladder(7), opts: core.Options{InputBytes: 7, MaxPaths: 20, Workers: 4}, killed: true},
		{name: "max-states-serial", src: ladder(7), opts: core.Options{InputBytes: 7, MaxPaths: 5000, MaxStates: 2}, killed: true},
		{name: "max-states-parallel", src: ladder(7), opts: core.Options{InputBytes: 7, MaxPaths: 5000, MaxStates: 2, Workers: 4}, killed: true},
		{name: "stop-on-bug-serial", src: resumeSrc, opts: core.Options{InputBytes: 3, StopOnBug: true}, killed: true, checks: true},
		{name: "stop-on-bug-parallel", src: resumeSrc, opts: core.Options{InputBytes: 3, StopOnBug: true, Workers: 4}, killed: true, checks: true},
		{name: "canceled-serial", src: resumeSrc, opts: core.Options{InputBytes: 3}, killed: true, cancel: true},
		{name: "canceled-parallel", src: resumeSrc, opts: core.Options{InputBytes: 3, Workers: 4}, killed: true, cancel: true},
		{name: "term-budget-serial", src: ladder(6), opts: core.Options{InputBytes: 6, MaxPaths: 5000, MaxStateTerms: 3}, degrade: true},
		{name: "term-budget-parallel", src: ladder(6), opts: core.Options{InputBytes: 6, MaxPaths: 5000, MaxStateTerms: 3, Workers: 4}, degrade: true},
		{name: "resumed", src: ladder(6), opts: core.Options{InputBytes: 6, MaxPaths: 5000}, resume: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := arch.MustLoad("tiny32")
			p := build(t, "tiny32", tc.src)
			opts := tc.opts
			var base core.Stats // counts the resumed leg starts from
			if tc.resume {
				var snaps []*core.Snapshot
				first := tc.opts
				first.CheckpointEvery = -1
				first.Checkpoint = func(s *core.Snapshot) { snaps = append(snaps, s) }
				if _, err := core.NewEngine(a, p, first).Run(); err != nil {
					t.Fatal(err)
				}
				opts.Resume = snaps[len(snaps)/2]
				base = opts.Resume.Stats
				if base.PathsDone == 0 || base.Instructions == 0 {
					t.Fatalf("checkpoint %d of %d has no history to resume", len(snaps)/2, len(snaps))
				}
			}
			prog := &core.Progress{}
			o := obs.New()
			prof := profile.New(profile.Meta{ADL: "tiny32"})
			opts.Progress, opts.Obs, opts.Profile = prog, o, prof
			var cancel *cancelAtDiv
			if tc.cancel {
				cancel = newCancelAtDiv(4)
				opts.Cancel = cancel.ch
			}
			e := core.NewEngine(a, p, opts)
			if tc.checks {
				for _, c := range checker.All() {
					e.AddChecker(c)
				}
			}
			if cancel != nil {
				e.AddChecker(cancel)
			}
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			s := r.Stats
			if live := o.Reg.Gauge("engine_live_states_max", "").Value(); !tc.resume && live != int64(s.MaxLiveSet) {
				t.Errorf("engine_live_states_max = %d, want MaxLiveSet %d", live, s.MaxLiveSet)
			}
			if tc.killed && s.StatesKilled == 0 {
				t.Fatal("no state killed by the budget")
			}
			if s.Solver.ModelHits == 0 {
				t.Fatal("no query answered from a state's model: the cache-hit views below do not see model hits")
			}
			if tc.degrade != (s.Degraded[core.DegradeStateBudget] > 0) {
				t.Fatalf("term-budget degradations = %d, want them iff the budget is set", s.Degraded[core.DegradeStateBudget])
			}

			// Progress is seeded from the checkpoint: run-cumulative.
			ps := prog.Snapshot()
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"instructions", ps.Instructions, s.Instructions},
				{"paths", ps.Paths, int64(s.PathsDone)},
				{"forks", ps.Forks, s.Forks},
				{"covered", ps.Covered, int64(s.Coverage)},
				{"degraded", ps.Degraded, s.Degraded.Total()},
				{"solver queries", ps.SolverQueries, s.Solver.Queries},
				{"cache hits", ps.CacheHits, s.Solver.CacheHits},
				{"frontier after the run", ps.Frontier, 0},
			} {
				if c.got != c.want {
					t.Errorf("progress %s = %d, want %d", c.name, c.got, c.want)
				}
			}

			// The registry and the profile see this process's events: a
			// resumed run's own leg.
			reg := func(name string) int64 { return o.Reg.Counter(name, "").Value() }
			execs, queries, hits, _, forks, infeasible, kills, _ := profTotals(prof.Snapshot())
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"engine_instructions_total", reg("engine_instructions_total"), s.Instructions - base.Instructions},
				{"engine_forks_total", reg("engine_forks_total"), s.Forks - base.Forks},
				{"engine_infeasible_total", reg("engine_infeasible_total"), s.Infeasible - base.Infeasible},
				{"engine_paths_completed_total", reg("engine_paths_completed_total"), int64(s.PathsDone - base.PathsDone)},
				{"engine_states_killed_total", reg("engine_states_killed_total"), int64(s.StatesKilled - base.StatesKilled)},
				{"engine_decode_calls_total", reg("engine_decode_calls_total"), s.DecodeCalls - base.DecodeCalls},
				{"profile execs", execs, s.Instructions - base.Instructions},
				{"profile forks", forks, s.Forks - base.Forks},
				{"profile infeasible", infeasible, s.Infeasible - base.Infeasible},
				{"profile kills", kills, int64(s.StatesKilled - base.StatesKilled)},
				{"profile queries", queries, s.Solver.Queries - base.Solver.Queries},
				{"profile cache hits", hits, s.Solver.CacheHits - base.Solver.CacheHits},
			} {
				if c.got != c.want {
					t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
				}
			}
		})
	}
}

// TestM16ShortInsnBeforeData: on m16, a 2-byte instruction directly in
// front of written data is decoded once and runs compiled; only the
// bytes its decode depends on count as its fetch window.
func TestM16ShortInsnBeforeData(t *testing.T) {
	src := `
_start:
	ldi g4, buf
	ldi g2, 7
	stx g2, 0(g4)
	ldi g3, 0
	trap 1
	cmpi g1, 10
	bcs low
	ldi g3, 1
low:
	mov g1, g3
	trap 2
	trap 0
buf:	.space 2
`
	r := exploreWith(t, "m16", src, core.Options{InputBytes: 1})
	if len(r.Paths) != 2 {
		t.Fatalf("%d paths, want 2", len(r.Paths))
	}
	for _, p := range r.Paths {
		if p.Status != core.StatusExit {
			t.Errorf("path %d ended %v (%s), want exit", p.ID, p.Status, p.Fault)
		}
	}
	if r.Stats.DecodeCalls != r.Stats.CompiledUnits {
		t.Errorf("decodes %d, compiled units %d: an unmodified instruction was decoded uncached",
			r.Stats.DecodeCalls, r.Stats.CompiledUnits)
	}
}
