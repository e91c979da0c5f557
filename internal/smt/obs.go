package smt

import (
	"repro/internal/obs"
)

// SolverObs is the solver's registry-backed metric set. One instance is
// resolved per registry (the instruments are shared atomics), attached
// to a Solver via the Obs field, and typically shared by every worker
// solver of a run. A nil *SolverObs disables solver telemetry; the
// instruments themselves are also nil-safe.
type SolverObs struct {
	Checks       *obs.Counter   // smt_checks_total
	SatResults   *obs.Counter   // smt_sat_total
	UnsatResults *obs.Counter   // smt_unsat_total
	CheckSeconds *obs.Histogram // smt_check_seconds: whole-Check latency (cache hits excluded)
	BlastSeconds *obs.Histogram // smt_blast_seconds: bit-blasting share
	SolveSeconds *obs.Histogram // smt_solve_seconds: SAT search share
	CacheHits    *obs.Counter   // smt_cache_hits_total
	CacheMisses  *obs.Counter   // smt_cache_misses_total
}

// NewSolverObs resolves the solver metric set against a registry.
// Returns nil (telemetry off) for a nil registry.
func NewSolverObs(r *obs.Registry) *SolverObs {
	if r == nil {
		return nil
	}
	return &SolverObs{
		Checks:       r.Counter("smt_checks_total", "SMT Check calls, including cache hits"),
		SatResults:   r.Counter("smt_sat_total", "Check calls that returned sat"),
		UnsatResults: r.Counter("smt_unsat_total", "Check calls that returned unsat"),
		CheckSeconds: r.Histogram("smt_check_seconds", "Latency of solved (non-cached) Check calls", obs.TimeBuckets),
		BlastSeconds: r.Histogram("smt_blast_seconds", "Bit-blasting time per solved Check", obs.TimeBuckets),
		SolveSeconds: r.Histogram("smt_solve_seconds", "SAT search time per solved Check", obs.TimeBuckets),
		CacheHits:    r.Counter("smt_cache_hits_total", "Check calls answered without blasting, by the shared query cache or by the parent state's model (ablated with it by NoQueryCache; the split is schedule-dependent, and states restored from a snapshot start without a model)"),
		CacheMisses:  r.Counter("smt_cache_misses_total", "Check calls that missed the query cache"),
	}
}
