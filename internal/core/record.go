// The engine's event recorder (docs/observability.md). Every engine
// event — instruction or superblock executed, fork, infeasible branch
// side, kill, path end, merge, decode, compiled unit, degradation, path
// fault, solver query, timed step or branch decision — is recorded by
// one call to the worker's recorder, the only writer of the Stats
// counters, the live Progress block, the engine_* registry series, the
// profile shard and the tracer. The Stats counter is a plain increment;
// every other view sits behind the one on test, so a run with no
// instrument attached pays no atomic op and no clock read.
package core

import (
	"fmt"
	"time"

	"repro/internal/decoder"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/smt"
)

// StepSampleRate is the step-timing sampling factor: one in this many
// steps is timed, feeding both engine_step_seconds and the profile's
// per-PC step time. Step time estimates scale the sums by it.
const StepSampleRate = 8

// recorder is one engine's (or one parallel worker's) event sink. The
// registry, tracer and progress are shared and concurrency-safe; the
// Stats block and the profile shard are the recorder's own, folded into
// the run's at merge points (add, fold).
type recorder struct {
	s    *Stats // the owning engine's report counters
	wid  int    // worker stamped on trace events; 0 is the calling engine
	on   bool   // some view besides Stats is attached
	tick uint64 // step-sampling counter

	tr       *obs.Tracer
	profiler *profile.Profiler
	prof     *profile.Shard
	progress *Progress

	// engine_* registry series, all nil when telemetry is off.
	instructions, forks, infeasible, pathsDone, statesKilled *obs.Counter
	decodeCalls, merges, compiledUnits                       *obs.Counter
	superblockBuilds, superblockHits, superblockInsns        *obs.Counter
	frontierDepth, liveMax                                   *obs.Gauge
	stepSeconds, decodeSeconds, branchSeconds, superblockLen *obs.Histogram
	faults                                                   [len(faultLayers)]*obs.Counter
	degraded                                                 [NumDegradeCauses]*obs.Counter
}

// newRecorder resolves the views o attaches, writing counters into s.
// Registry series are get-or-create, so engines sharing a registry feed
// the same series.
func newRecorder(o Options, s *Stats) recorder {
	r := recorder{
		s:        s,
		tr:       o.Obs.Tracer().Scoped(o.JobID),
		profiler: o.Profile,
		prof:     o.Profile.NewShard(),
		progress: o.Progress,
	}
	if reg := o.Obs.Registry(); reg != nil {
		r.instructions = reg.Counter("engine_instructions_total", "Instructions executed symbolically")
		r.forks = reg.Counter("engine_forks_total", "State forks at feasible branches")
		r.infeasible = reg.Counter("engine_infeasible_total", "Branch sides pruned as unsatisfiable")
		r.pathsDone = reg.Counter("engine_paths_completed_total", "Paths that reached a terminal status")
		r.statesKilled = reg.Counter("engine_states_killed_total", "Live states dropped by a budget")
		r.decodeCalls = reg.Counter("engine_decode_calls_total", "Decoder invocations (translation-cache misses)")
		r.merges = reg.Counter("engine_merges_total", "Opportunistic state merges (MergeStates)")
		r.frontierDepth = reg.Gauge("engine_frontier_depth", "Live states queued for exploration")
		r.liveMax = reg.Gauge("engine_live_states_max", "High-water mark of the live state set")
		r.stepSeconds = reg.Histogram("engine_step_seconds", "Per-instruction symbolic step latency (sampled 1 in 8)", obs.TimeBuckets)
		r.decodeSeconds = reg.Histogram("engine_decode_seconds", "Decoder invocation latency (translation-cache misses only)", obs.TimeBuckets)
		r.branchSeconds = reg.Histogram("engine_branch_check_seconds", "Branch-feasibility decision latency (solver time)", obs.TimeBuckets)
		r.compiledUnits = reg.Counter("engine_compiled_units_total", "Instructions compiled to closure chains")
		r.superblockBuilds = reg.Counter("engine_superblock_builds_total", "Superblocks built (non-empty straightline prefixes)")
		r.superblockHits = reg.Counter("engine_superblock_hits_total", "Superblock executions")
		r.superblockInsns = reg.Counter("engine_superblock_insns_total", "Instructions executed inside superblocks")
		r.superblockLen = reg.Histogram("engine_superblock_len", "Superblock chain length at build time", obs.SuperblockLenBuckets)
		for i, l := range faultLayers {
			r.faults[i] = reg.Counter(fmt.Sprintf("fault_paths_total{layer=%q}", l), faultPathsHelp)
		}
		for c := DegradeCause(0); c < NumDegradeCauses; c++ {
			r.degraded[c] = reg.Counter(fmt.Sprintf("degraded_total{cause=%q}", c), "Graceful degradations (over-approximations) by cause")
		}
	}
	r.on = r.instructions != nil || r.tr != nil || r.prof != nil || r.progress != nil
	return r
}

// worker returns the recorder of parallel worker wid: the same shared
// views, its own counters s and shard.
func (r *recorder) worker(wid int, s *Stats) recorder {
	w := *r
	w.s, w.wid, w.tick = s, wid, 0
	w.prof = r.profiler.NewShard()
	return w
}

// add folds a finished worker's counters and shard into r.
func (r *recorder) add(o *recorder) {
	s, w := r.s, o.s
	s.Instructions += w.Instructions
	s.Forks += w.Forks
	s.Infeasible += w.Infeasible
	s.PathsDone += w.PathsDone
	s.StatesKilled += w.StatesKilled
	s.DecodeCalls += w.DecodeCalls
	s.Merges += w.Merges
	s.SuperblockHits += w.SuperblockHits
	s.SuperblockInsns += w.SuperblockInsns
	s.PathFaults += w.PathFaults
	s.Degraded.Add(w.Degraded)
	s.MaxDepth = max(s.MaxDepth, w.MaxDepth)
	s.MaxLiveSet = max(s.MaxLiveSet, w.MaxLiveSet)
	r.profiler.Fold(o.prof)
}

// fold hands the shard to the profiler at the end of a run, concolic
// search or replay.
func (r *recorder) fold() { r.profiler.Fold(r.prof) }

// resume seeds the counters from a checkpoint, and the live progress
// with run-cumulative values rather than post-crash deltas.
func (r *recorder) resume(s Stats, frontier, covered int) {
	*r.s = s
	r.progress.restore(ProgressSnapshot{
		Instructions: s.Instructions, Paths: int64(s.PathsDone), Forks: s.Forks,
		Frontier: int64(frontier), Covered: int64(covered), Degraded: s.Degraded.Total(),
		SolverNS: int64(s.Solver.SolveTime), SolverQueries: s.Solver.Queries, CacheHits: s.Solver.CacheHits,
	})
}

// queryProf returns the recorder as the solver's per-query hook when a
// view consumes query timings, else nil, which keeps the solver's
// cache-hit path clock-free.
func (r *recorder) queryProf() smt.QueryProf {
	if r.prof == nil && r.progress == nil {
		return nil
	}
	return r
}

// Query implements smt.QueryProf: one solver query, answered by the
// cache or by a full blast and search, charged to the PC being stepped.
func (r *recorder) Query(d time.Duration, cacheHit bool) {
	r.prof.Query(d, cacheHit)
	if p := r.progress; p != nil {
		p.solverNS.Add(int64(d))
		p.solverQueries.Add(1)
		if cacheHit {
			p.cacheHits.Add(1)
		}
	}
}

// insn records one executed instruction; newPC says the address ran for
// the first time in the run. blk is the superblock it ran in, nil for a
// single step; a cached block reaches the profile in bulk (block).
func (r *recorder) insn(pc uint64, newPC bool, ent *compEntry, blk *compBlock) {
	r.s.Instructions++
	if r.on {
		r.insnViews(pc, newPC, ent, blk)
	}
}

// insnViews is insn's armed path, kept out of line so insn inlines.
func (r *recorder) insnViews(pc uint64, newPC bool, ent *compEntry, blk *compBlock) {
	r.instructions.Inc()
	if p := r.progress; p != nil {
		p.instructions.Add(1)
		if newPC {
			p.covered.Add(1)
		}
	}
	if r.prof != nil && (blk == nil || !blk.shared) {
		r.prof.Exec(pc, ent.dec.Insn.Mnemonic, ent.dec.Insn.FormatName())
		if blk != nil {
			r.prof.Edge(pc, ent.cont)
		}
	}
}

// block records one superblock run that executed its first n units.
func (r *recorder) block(blk *compBlock, n int) {
	r.s.SuperblockHits++
	r.s.SuperblockInsns += int64(n)
	if r.on {
		r.superblockHits.Inc()
		r.superblockInsns.Add(int64(n))
		if blk.shared {
			r.prof.ExecBlock(blk, blk.prof, n)
		}
	}
}

// blockBuilt records a superblock of n units entering the shared cache.
func (r *recorder) blockBuilt(n int) {
	if r.on {
		r.superblockBuilds.Inc()
		r.superblockLen.Observe(float64(n))
	}
}

// compiled records one instruction compiled into the shared cache.
func (r *recorder) compiled() {
	if r.on {
		r.compiledUnits.Inc()
	}
}

// decode runs and records one decoder invocation at pc: a compile-cache
// miss or a self-modified fetch window. Only the decoder call is timed.
func (r *recorder) decode(d *decoder.Decoder, pc uint64, buf []byte) (decoder.Decoded, error) {
	r.s.DecodeCalls++
	if r.on {
		r.decodeCalls.Inc()
		r.prof.CompileMiss(pc)
	}
	if r.decodeSeconds == nil {
		return d.Decode(buf)
	}
	t0 := time.Now()
	dec, err := d.Decode(buf)
	r.decodeSeconds.ObserveSince(t0)
	return dec, err
}

// stepBegin opens the step of the state at pc, to which solver queries
// and degradations attribute until the next step. It returns the start
// time of a sampled step, zero otherwise.
func (r *recorder) stepBegin(pc uint64) time.Time {
	if !r.on {
		return time.Time{}
	}
	r.prof.SetPC(pc)
	if r.stepSeconds == nil && r.prof == nil {
		return time.Time{}
	}
	if r.tick++; r.tick%StepSampleRate != 0 {
		return time.Time{}
	}
	return time.Now()
}

// stepEnd closes a step opened by stepBegin.
func (r *recorder) stepEnd(pc uint64, t0 time.Time) {
	if !t0.IsZero() {
		d := time.Since(t0)
		r.stepSeconds.ObserveDuration(d)
		r.prof.StepTime(pc, d)
	}
}

// clock returns the start time of a branch decision when a view times
// them, zero otherwise.
func (r *recorder) clock() time.Time {
	if r.branchSeconds == nil && r.tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// span records a branch decision of st begun at t0 (from clock): its
// latency, and a trace span of the given kind.
func (r *recorder) span(kind string, st *State, t0 time.Time, detail func() string) {
	if t0.IsZero() {
		return
	}
	r.branchSeconds.ObserveSince(t0)
	if r.tr != nil {
		r.tr.Span(kind, r.wid, st.ID, st.PC, t0, detail())
	}
}

// burst records a parallel worker's run of path from pc, begun at t0.
func (r *recorder) burst(path int, pc uint64, t0 time.Time) {
	if r.tr != nil {
		r.tr.Span("exec", r.wid, path, pc, t0, "")
	}
}

// event records a trace-only instant event.
func (r *recorder) event(kind string, path int, pc uint64, detail func() string) {
	if r.tr != nil {
		r.tr.Event(kind, r.wid, path, pc, detail())
	}
}

// fork records n new states split off at pc.
func (r *recorder) fork(pc uint64, n int64) {
	r.s.Forks += n
	if r.on {
		r.forks.Add(n)
		if p := r.progress; p != nil {
			p.forks.Add(n)
		}
		r.prof.Fork(pc, n)
	}
}

// succ records c as a successor of a branch at pc: the control edge to
// c.PC, and, when c was cloned off parent, its trace fork event.
func (r *recorder) succ(pc uint64, parent, c *State, detail func() string) {
	if r.on {
		r.prof.Edge(pc, c.PC)
		if c != parent {
			r.event("fork", c.ID, pc, detail)
		}
	}
}

// infeasibleSide records a branch side at pc pruned as unsatisfiable.
func (r *recorder) infeasibleSide(pc uint64) {
	r.s.Infeasible++
	if r.on {
		r.infeasible.Inc()
		r.prof.Infeasible(pc)
	}
}

// kill records a live state dropped by a budget.
func (r *recorder) kill(st *State, reason string) {
	r.s.StatesKilled++
	if r.on {
		r.statesKilled.Inc()
		r.prof.Kill(st.PC)
		r.event("kill", st.ID, st.PC, func() string { return reason })
	}
}

// killAll records the states sts, the whole live set (where names it),
// dropped at once for reason.
func (r *recorder) killAll(sts []*State, reason, where string) {
	if len(sts) == 0 {
		return
	}
	r.s.StatesKilled += len(sts)
	if r.on {
		r.statesKilled.Add(int64(len(sts)))
		for _, st := range sts {
			r.prof.Kill(st.PC)
		}
		r.event("kill", -1, 0, func() string { return fmt.Sprintf("%s (%d %s states)", reason, len(sts), where) })
	}
}

// pathEnd records a path reaching its terminal status.
func (r *recorder) pathEnd(st *State) {
	r.s.PathsDone++
	r.s.MaxDepth = max(r.s.MaxDepth, st.Depth)
	if r.on {
		r.pathsDone.Inc()
		if p := r.progress; p != nil {
			p.paths.Add(1)
		}
		r.event("end", st.ID, st.PC, func() string {
			if st.Fault != "" {
				return st.Status.String() + ": " + st.Fault
			}
			return st.Status.String()
		})
	}
}

// merge records an opportunistic merge producing st.
func (r *recorder) merge(st *State) {
	r.s.Merges++
	if r.on {
		r.merges.Inc()
		r.prof.Merge(st.PC)
		r.event("merge", st.ID, st.PC, func() string { return "" })
	}
}

// degrade records one graceful degradation, attributed to the PC being
// stepped.
func (r *recorder) degrade(cause DegradeCause) {
	r.s.Degraded[cause]++
	if r.on {
		r.degraded[cause].Inc()
		if p := r.progress; p != nil {
			p.degraded.Add(1)
		}
		r.prof.Degrade(cause.String())
	}
}

// pathFault records a recovered panic; st is the path it killed, nil
// for a fault outside any path.
func (r *recorder) pathFault(pf PathFault, st *State) {
	r.s.PathFaults++
	if r.on {
		r.faults[faultLayerIndex(pf.Layer)].Inc()
		if st != nil {
			r.event("kill", st.ID, st.PC, func() string { return "panic: " + pf.Layer })
		}
	}
}

// frontier records the live-set size n: the depth gauge, the live
// progress and the high-water mark.
func (r *recorder) frontier(n int) {
	r.s.MaxLiveSet = max(r.s.MaxLiveSet, n)
	if r.on {
		r.frontierDepth.Set(int64(n))
		r.liveMax.Max(int64(n))
		if p := r.progress; p != nil {
			p.frontier.Store(int64(n))
		}
	}
}
