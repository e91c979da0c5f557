// Live run progress: a lock-free counter block a long exploration
// updates in place so an observer (the symexd SSE stream, a TUI, a
// watchdog) can snapshot the run while it is running, not only
// post-mortem. The engine's event recorder (record.go) is its only
// writer: a nil *Progress costs nothing, and when armed every update is
// a single atomic op, safe across exploration workers without locks.
package core

import "sync/atomic"

// Progress is the live view of one run. All fields are updated
// atomically by the engine's recorder (exploration workers and concolic
// runs alike) and read via Snapshot; the zero value is ready to
// use.
type Progress struct {
	instructions  atomic.Int64
	paths         atomic.Int64
	forks         atomic.Int64
	frontier      atomic.Int64 // live states queued right now
	covered       atomic.Int64 // distinct instruction addresses executed
	degraded      atomic.Int64 // graceful degradations, all causes
	solverNS      atomic.Int64 // wall time spent in solver Check calls
	solverQueries atomic.Int64
	cacheHits     atomic.Int64
}

// ProgressSnapshot is one consistent-enough reading of a Progress: each
// field is individually atomic; the set is taken mid-run, so fields may
// be skewed by in-flight updates.
type ProgressSnapshot struct {
	Instructions  int64 `json:"instructions"`
	Paths         int64 `json:"paths"`
	Forks         int64 `json:"forks"`
	Frontier      int64 `json:"frontier"`
	Covered       int64 `json:"covered"`
	Degraded      int64 `json:"degraded"`
	SolverNS      int64 `json:"solver_ns"`
	SolverQueries int64 `json:"solver_queries"`
	CacheHits     int64 `json:"cache_hits"`
}

// Snapshot reads every counter. Safe during a run; zero value (and all
// zeros) on a nil receiver.
func (p *Progress) Snapshot() ProgressSnapshot {
	if p == nil {
		return ProgressSnapshot{}
	}
	return ProgressSnapshot{
		Instructions:  p.instructions.Load(),
		Paths:         p.paths.Load(),
		Forks:         p.forks.Load(),
		Frontier:      p.frontier.Load(),
		Covered:       p.covered.Load(),
		Degraded:      p.degraded.Load(),
		SolverNS:      p.solverNS.Load(),
		SolverQueries: p.solverQueries.Load(),
		CacheHits:     p.cacheHits.Load(),
	}
}

// restore seeds every counter from a resumed run's checkpoint so
// mid-run observers see run-cumulative values, not post-crash deltas.
func (p *Progress) restore(s ProgressSnapshot) {
	if p == nil {
		return
	}
	p.instructions.Store(s.Instructions)
	p.paths.Store(s.Paths)
	p.forks.Store(s.Forks)
	p.frontier.Store(s.Frontier)
	p.covered.Store(s.Covered)
	p.degraded.Store(s.Degraded)
	p.solverNS.Store(s.SolverNS)
	p.solverQueries.Store(s.SolverQueries)
	p.cacheHits.Store(s.CacheHits)
}

// Reset zeroes every counter: a retry of the same job starts its live
// view from scratch instead of double-counting the failed attempt.
func (p *Progress) Reset() { p.restore(ProgressSnapshot{}) }
