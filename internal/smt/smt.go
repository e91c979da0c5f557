// Package smt implements an incremental SMT solver for the QF_BV logic
// (quantifier-free bit-vectors) by eager bit-blasting onto the CDCL SAT
// solver in internal/smt/sat.
//
// The solver is incremental in the style the symbolic execution engine
// needs: terms are blasted once and cached for the lifetime of the solver,
// every Tseitin definition is added as a permanent clause (definitions are
// always consistent), and each Check call merely passes the literals of
// the queried path condition as SAT assumptions. Learned clauses therefore
// carry over between queries that share structure.
package smt

import (
	"errors"
	"time"

	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/smt/sat"
)

// Result mirrors sat.Result for callers that do not import the sat package.
type Result = sat.Result

// Re-exported results.
const (
	Unknown = sat.Unknown
	Sat     = sat.Sat
	Unsat   = sat.Unsat
)

// ErrBudget is returned when a query exceeds the configured conflict
// budget.
var ErrBudget = errors.New("smt: solver budget exhausted")

// ErrDeadline is returned when a query runs past the configured
// wall-clock QueryDeadline. The engine treats it exactly like ErrBudget
// — an unknown result to degrade around — but counts it separately.
var ErrDeadline = errors.New("smt: solver deadline exceeded")

// Stats accumulates solver-facade counters across Check calls.
type Stats struct {
	Queries    int64
	SatResults int64
	UnsatCount int64
	SolveTime  time.Duration
	BlastTime  time.Duration
	// CNF size counters (cumulative over the solver lifetime).
	AuxVars int64
	Clauses int64
	// Query-cache counters (zero when no cache is attached). Hits are
	// queries answered without blasting or solving: by a cache entry or,
	// for the ModelHits subset, by the caller's known model (CheckUnder).
	CacheHits   int64
	CacheMisses int64
	ModelHits   int64
	// Deadlines counts Check calls abandoned at the wall-clock
	// QueryDeadline.
	Deadlines int64
}

// Add accumulates o into s (used to merge per-worker solver stats).
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.SatResults += o.SatResults
	s.UnsatCount += o.UnsatCount
	s.SolveTime += o.SolveTime
	s.BlastTime += o.BlastTime
	s.AuxVars += o.AuxVars
	s.Clauses += o.Clauses
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.ModelHits += o.ModelHits
	s.Deadlines += o.Deadlines
}

// Solver is an incremental QF_BV solver over expressions from one Builder.
// A Solver is not safe for concurrent use; solvers on several goroutines
// may share one Builder once it is shared (expr.Builder.Share).
type Solver struct {
	b   *expr.Builder
	sat *sat.Solver

	bits  map[*expr.Expr][]sat.Lit // bit-vector term -> lits, LSB first
	lits  map[*expr.Expr]sat.Lit   // boolean term -> lit
	vars  []*expr.Expr             // blasted expr variables, for Model
	truth sat.Lit                  // literal fixed to true

	// Blaster scratch rows (see scratch in blast.go).
	inv, pp []sat.Lit
	sh      [2][]sat.Lit

	model expr.Env

	// MaxConflicts bounds each individual Check; 0 means unlimited.
	MaxConflicts int64

	// QueryDeadline, when nonzero, bounds each individual Check by wall
	// clock: a query running longer returns Unknown with ErrDeadline.
	// It is the per-query arm of the resource governor
	// (docs/robustness.md); core.Options.SolverDeadline wires it.
	QueryDeadline time.Duration

	// Inject, when non-nil, is the fault-injection hook for the solver
	// site (docs/robustness.md): it can make a Check panic, exhaust its
	// budget, or expire its deadline on a deterministic schedule.
	Inject *faultinject.Injector

	// Cache, when non-nil, memoizes Check results across structurally
	// identical queries. One cache may be shared concurrently by many
	// solvers, over one Builder or several; the engine shares one across
	// all exploration workers and concolic replays.
	Cache *QueryCache

	// Obs, when non-nil, feeds the registry-backed solver metrics
	// (internal/obs) in addition to the per-solver Stats below. The
	// instruments are atomic, so one SolverObs is shared by every worker
	// solver of a run.
	Obs *SolverObs

	// Prof, when non-nil, attributes each query's wall time and
	// cache-hit status to the guest PC being stepped (the exploration
	// profiler, internal/profile). Unlike Obs it is worker-local: each
	// worker solver points at its own engine's unsynchronized shard.
	Prof QueryProf

	Stats Stats
}

// QueryProf is the per-query profiling hook: one call per Check with
// the query's wall time and whether the cache answered it. Implemented
// by profile.Shard.
type QueryProf interface {
	Query(d time.Duration, cacheHit bool)
}

// New returns a solver for expressions built by b.
func New(b *expr.Builder) *Solver {
	s := &Solver{
		b:    b,
		sat:  sat.New(),
		bits: make(map[*expr.Expr][]sat.Lit),
		lits: make(map[*expr.Expr]sat.Lit),
	}
	s.truth = s.fresh()
	s.sat.AddClause(s.truth)
	return s
}

// NumSATVars exposes the size of the underlying SAT instance.
func (s *Solver) NumSATVars() int { return s.sat.NumVars() }

// NumClauses exposes the number of permanent clauses.
func (s *Solver) NumClauses() int { return s.sat.NumClauses() }

// SATStats returns the underlying SAT solver statistics.
func (s *Solver) SATStats() sat.Stats { return s.sat.Stats }

func (s *Solver) fresh() sat.Lit { return sat.MkLit(s.freshVars(1), false) }

// freshVars allocates n consecutive SAT variables and returns the first.
func (s *Solver) freshVars(n int) int {
	s.Stats.AuxVars += int64(n)
	return s.sat.NewVars(n)
}

func (s *Solver) add(lits ...sat.Lit) {
	s.Stats.Clauses++
	s.sat.AddClause(lits...)
}

func (s *Solver) constLit(v bool) sat.Lit {
	if v {
		return s.truth
	}
	return s.truth.Not()
}

// Check decides the conjunction of the given boolean expressions. On Sat,
// Model returns a satisfying assignment for every bit-vector variable
// blasted so far.
func (s *Solver) Check(assumptions ...*expr.Expr) (Result, error) {
	return s.CheckUnder(nil, 0, assumptions...)
}

// CheckUnder is Check for a caller that holds a model m known to satisfy
// the first known assumptions (a state's path condition). When a query
// cache is attached and m also satisfies the rest, the answer is Sat
// with m as the Model, without a cache lookup, blast or search; it is
// counted as a cache hit and a model hit. m must not be mutated later.
// A nil m, or no cache, decides the query exactly as Check does.
func (s *Solver) CheckUnder(m expr.Env, known int, assumptions ...*expr.Expr) (Result, error) {
	for _, a := range assumptions {
		if !a.IsBool() {
			panic("smt: Check with non-boolean assumption")
		}
	}
	// Fault injection happens before the model and cache lookups so an
	// injected failure exercises the same degradation paths a real
	// solver failure would (a hit can never time out), and the
	// injection schedule does not depend on which queries hit.
	switch s.Inject.Fire(faultinject.SiteSolver) {
	case faultinject.KindBudget:
		return Unknown, ErrBudget
	case faultinject.KindDeadline:
		s.Stats.Deadlines++
		return Unknown, ErrDeadline
	}
	// Profiled queries are wall-timed end to end, including the cache
	// lookup; the unprofiled hit path stays clock-free.
	var pt0 time.Time
	if s.Prof != nil {
		pt0 = time.Now()
	}
	if s.Cache != nil && m != nil && expr.EvalAll(assumptions[known:], m) {
		s.Stats.ModelHits++
		s.model = m
		s.hit(Sat, pt0)
		return Sat, nil
	}
	var key cacheKey
	if s.Cache != nil {
		key = queryKey(assumptions)
		if e, ok := s.Cache.lookup(key); ok {
			if e.r == Sat {
				s.model = e.model
			}
			s.hit(e.r, pt0)
			return e.r, nil
		}
		s.Stats.CacheMisses++
		if s.Obs != nil {
			s.Obs.CacheMisses.Inc()
		}
	}

	t0 := time.Now()
	as := make([]sat.Lit, 0, len(assumptions))
	for _, a := range assumptions {
		as = append(as, s.blastBool(a))
	}
	blast := time.Since(t0)
	s.Stats.BlastTime += blast

	s.sat.MaxConflicts = s.MaxConflicts
	if s.QueryDeadline > 0 {
		s.sat.Deadline = time.Now().Add(s.QueryDeadline)
	} else {
		s.sat.Deadline = time.Time{}
	}
	t1 := time.Now()
	r, err := s.sat.Solve(as...)
	solve := time.Since(t1)
	s.Stats.SolveTime += solve
	s.tally(r)
	if s.Obs != nil {
		s.Obs.BlastSeconds.ObserveDuration(blast)
		s.Obs.SolveSeconds.ObserveDuration(solve)
		s.Obs.CheckSeconds.ObserveSince(t0)
	}
	if s.Prof != nil {
		s.Prof.Query(time.Since(pt0), false)
	}
	if err != nil {
		if err == sat.ErrDeadline {
			s.Stats.Deadlines++
			return Unknown, ErrDeadline
		}
		return Unknown, ErrBudget
	}
	if r == Sat {
		s.extractModel()
	}
	if s.Cache != nil && r != Unknown {
		e := cacheEntry{r: r}
		if r == Sat {
			e.model = s.model
		}
		s.Cache.store(key, e)
	}
	return r, nil
}

// hit counts a query answered without blasting or solving as a cache
// hit; pt0 is its profiling start.
func (s *Solver) hit(r Result, pt0 time.Time) {
	s.Stats.CacheHits++
	if s.Obs != nil {
		s.Obs.CacheHits.Inc()
	}
	s.tally(r)
	if s.Prof != nil {
		s.Prof.Query(time.Since(pt0), true)
	}
}

// tally counts one query and its result (Unknown when the search gave
// up) in Stats and, when attached, Obs.
func (s *Solver) tally(r Result) {
	s.Stats.Queries++
	switch r {
	case Sat:
		s.Stats.SatResults++
		if s.Obs != nil {
			s.Obs.SatResults.Inc()
		}
	case Unsat:
		s.Stats.UnsatCount++
		if s.Obs != nil {
			s.Obs.UnsatResults.Inc()
		}
	}
	if s.Obs != nil {
		s.Obs.Checks.Inc()
	}
}

func (s *Solver) extractModel() {
	s.model = make(expr.Env, len(s.vars))
	for _, v := range s.vars {
		if v.IsBool() {
			if s.sat.Value(s.lits[v].Var()) != s.lits[v].Neg() {
				s.model[v.VarName()] = 1
			} else {
				s.model[v.VarName()] = 0
			}
			continue
		}
		bits := s.bits[v]
		var val uint64
		for i, l := range bits {
			if s.sat.Value(l.Var()) != l.Neg() {
				val |= 1 << uint(i)
			}
		}
		s.model[v.VarName()] = val
	}
}

// Model returns the satisfying assignment found by the most recent Sat
// Check. Variables never mentioned in any checked formula are absent
// (callers should treat them as zero, which expr.Eval does).
func (s *Solver) Model() expr.Env { return s.model }

// Value evaluates e under the current model.
func (s *Solver) Value(e *expr.Expr) uint64 { return expr.Eval(e, s.model) }
