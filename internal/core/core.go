// Package core implements the retargetable symbolic execution engine —
// the paper's primary contribution. The engine is architecture-agnostic:
// every machine-dependent ingredient (decoder, register model, semantics)
// is generated from an ADL description at construction time, so porting
// the whole analysis to a new CPU costs one description file.
//
// The engine explores program paths over symbolic machine states, forking
// at feasible branches and discharging path conditions with the bit-vector
// SMT solver in internal/smt. Security checkers observe divisions, memory
// accesses and control transfers, and report bugs with concrete
// reproducing inputs extracted from solver models.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/adl"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/rtl"
	"repro/internal/smt"
)

// Strategy selects the path exploration order.
type Strategy int

// Exploration strategies.
const (
	DFS Strategy = iota
	BFS
	Random
	Coverage // prefer states whose next instruction was executed least
)

func (s Strategy) String() string {
	switch s {
	case DFS:
		return "dfs"
	case BFS:
		return "bfs"
	case Random:
		return "random"
	case Coverage:
		return "coverage"
	}
	return "unknown"
}

// Options configures an analysis run. The zero value is usable; missing
// limits default to moderate values.
type Options struct {
	MaxSteps  int64 // per-path instruction budget (default 10000)
	MaxPaths  int   // completed-path budget (default 1000)
	MaxStates int   // live-state budget (default 10000)
	Strategy  Strategy
	Seed      int64 // for Strategy == Random

	// InputBytes is the number of symbolic bytes the read trap provides
	// before reporting EOF (default 8).
	InputBytes int

	// MaxJumpTargets bounds solver-driven enumeration of symbolic jump
	// targets (default 4).
	MaxJumpTargets int

	// MaxSolverConflicts bounds each SMT query (0 = unlimited).
	MaxSolverConflicts int64

	// NoSimplify disables expression simplification (ablation).
	NoSimplify bool

	// StopOnBug ends the exploration as soon as any checker reports a
	// finding (time-to-first-bug measurements).
	StopOnBug bool

	// MergeStates enables opportunistic state merging: live states at
	// the same program counter fold into one if-then-else-merged state,
	// trading path count for term size (veritesting-style). Merging needs
	// a global view of the live set, so it only applies to serial runs;
	// it is ignored when Workers > 1.
	MergeStates bool

	// Workers is the number of exploration workers. 0 or 1 runs the
	// classic serial loop; N > 1 explores paths concurrently: each worker
	// owns its own expression builder and solver (neither is
	// goroutine-safe), pulls states from a shared strategy-aware frontier,
	// and re-homes stolen states onto its builder via a term-transfer
	// pass. The explored path set, the bug sites and the coverage are
	// deterministic and identical to a serial run as long as no budget
	// (MaxPaths, MaxStates, TimeBudget, StopOnBug) truncates the search;
	// see docs/engine.md for exactly which report fields stay bit-stable.
	Workers int

	// NoQueryCache disables the shared solver-query cache (ablation).
	NoQueryCache bool

	// QueryCache, when non-nil, is adopted as the solver-query cache
	// instead of a fresh per-engine one. The cache is keyed by
	// builder-independent structural digests, so one instance can be
	// shared across engines, runs and tenants — the service layer
	// (internal/service) hands every job the same persistent-backed
	// cache. Ignored under NoQueryCache.
	QueryCache *smt.QueryCache

	// Cancel, when non-nil, aborts the run cooperatively once the
	// channel is closed: the engine stops between instructions, kills
	// the remaining live states (counted in Stats.StatesKilled) and
	// returns the report of whatever completed. Serial, parallel and
	// concolic runs all honor it; the service layer wires it to job
	// cancellation.
	Cancel <-chan struct{}

	// CaptureEndState records each completed path's final symbolic
	// registers and memory overlay in PathResult.End, so differential
	// oracles can evaluate the whole end state under a concrete input.
	// Off by default: end states pin every register expression in memory
	// for the lifetime of the report.
	CaptureEndState bool

	// TimeBudget bounds the wall-clock time of a Run (0 = unlimited).
	// Checked between instructions; remaining live states are killed.
	TimeBudget time.Duration

	// Obs attaches the telemetry subsystem (internal/obs): registry-
	// backed counters, gauges and latency histograms fed from the hot
	// paths, and — when Obs.Trace is set — per-path lifecycle tracing.
	// Nil (the default) disables all instrumentation; the residual cost
	// is one pointer test per site. The end-of-run Stats struct remains
	// the deterministic snapshot; the registry is the live view of the
	// same counters (docs/observability.md).
	Obs *obs.Obs

	// Cover attaches the semantic-coverage collector (internal/cover).
	// The engine binds the architecture once at construction and then
	// records, per instruction, the sym layer (instructions stepped,
	// branch outcomes reached, control events raised), the solver layer
	// (branch polarities proved feasible), the decode layer (through the
	// shared decoder) and the translate layer (through the RTL
	// evaluator). Nil (the default) disables recording; the residual
	// cost is one pointer test per site, same bargain as Obs.
	Cover *cover.Collector

	// SolverDeadline, when nonzero, bounds every individual solver
	// query by wall clock (the per-query arm of the resource governor,
	// docs/robustness.md). On expiry the engine over-approximates —
	// keeps both branch sides, concretizes the address — instead of
	// erroring; Stats.Degraded counts every such decision by cause.
	SolverDeadline time.Duration

	// MaxStateTerms, when nonzero, bounds the symbolic footprint of a
	// single state (path-condition terms plus memory-overlay cells). A
	// state growing past the budget is killed with a recorded
	// degradation; its siblings continue. Ignored during concrete
	// replays, which must never lose the pinned path.
	MaxStateTerms int

	// Inject, when non-nil, arms the deterministic fault-injection
	// harness (internal/faultinject) at the engine's instrumented
	// sites: decode, translate, symbolic step, solver and memory
	// concretization. Production runs leave it nil (one pointer test
	// per site); the difftest chaos mode uses it to prove fault
	// isolation (docs/robustness.md).
	Inject *faultinject.Injector

	// Profile attaches the exploration profiler (internal/profile):
	// per-guest-PC attribution of solver time, fork fan-out,
	// degradations, cache misses, kills/merges and sampled step time.
	// Each engine (and each parallel worker) records into its own
	// unsynchronized shard, folded into the profiler at merge points.
	// Nil (the default) disables recording; the residual cost is one
	// pointer test per site, same bargain as Obs and Cover.
	Profile *profile.Profiler

	// Progress, when non-nil, receives live run-progress updates
	// (instructions, paths, forks, frontier depth, solver time,
	// coverage, degradations) as lock-free atomic counters an observer
	// may snapshot while the run executes — the feed behind symexd's
	// per-job SSE stream. Nil (the default) disables it; the residual
	// cost is one pointer test per site, same bargain as Obs, Cover
	// and Profile.
	Progress *Progress

	// JobID labels this run's trace events and profile with the
	// analysis-service job that owns it, so artifacts from concurrent
	// daemon jobs stay attributable. Empty outside the daemon.
	JobID string

	// Checkpoint, when non-nil, receives periodic exploration snapshots
	// from a serial run (see snapshot.go): every CheckpointEvery of wall
	// time the engine captures the completed paths plus the live
	// frontier and hands the Snapshot to the callback, which typically
	// marshals it to a durable file. Called synchronously between
	// instructions on the exploration goroutine. Ignored when
	// Workers > 1 — parallel schedules are not resumable.
	Checkpoint func(*Snapshot)

	// CheckpointEvery is the wall-time interval between Checkpoint
	// calls (default 1s when Checkpoint is set). The interval is a
	// floor, not a schedule: a duty-cycle governor stretches the gap to
	// ckptDutyFactor times the previous checkpoint's synchronous cost,
	// so however large the snapshot grows as paths accumulate,
	// checkpointing consumes a bounded share of the run's wall time —
	// freshness degrades before throughput does. A negative interval
	// disables both the pace and the governor and checkpoints at every
	// opportunity (between every scheduling step) — meant for tests and
	// tools that need dense cut points, not for production runs.
	CheckpointEvery time.Duration

	// Resume, when non-nil, seeds the run from a checkpoint instead of
	// the program entry point: completed paths, bugs, visit counts, the
	// ID allocator and the live frontier are restored, and exploration
	// continues where the interrupted run stopped. The engine must be
	// fresh and built for the same architecture and program the
	// snapshot was taken from. Run returns an error for a mismatched or
	// malformed snapshot, and when combined with Workers > 1.
	Resume *Snapshot

	// StackBase and StackSize describe the stack region; the engine
	// initializes the architecture's sp register to StackBase. Defaults:
	// 0x40000 and 0x10000.
	StackBase uint64
	StackSize uint64
}

func (o Options) withDefaults() Options {
	if o.MaxSteps == 0 {
		o.MaxSteps = 10000
	}
	if o.MaxPaths == 0 {
		o.MaxPaths = 1000
	}
	if o.MaxStates == 0 {
		o.MaxStates = 10000
	}
	if o.InputBytes == 0 {
		o.InputBytes = 8
	}
	if o.MaxJumpTargets == 0 {
		o.MaxJumpTargets = 4
	}
	// StackBase/StackSize default in NewEngine, which knows the address
	// width.
	return o
}

// Bug is one checker finding.
type Bug struct {
	Check   string   // checker name
	PC      uint64   // faulting instruction address
	Insn    string   // disassembly
	Msg     string   // description
	Model   expr.Env // satisfying assignment triggering the bug
	Input   []byte   // concrete reproducing input (from Model)
	PathID  int
	FoundAt int64 // instructions executed when the finding was made
}

func (b Bug) String() string {
	return fmt.Sprintf("[%s] %#x %q: %s (input %q)", b.Check, b.PC, b.Insn, b.Msg, b.Input)
}

// PathResult is one completed path.
type PathResult struct {
	ID       int
	Status   Status
	Fault    string
	EndPC    uint64
	Steps    int64
	Depth    int
	PathCond []*expr.Expr
	Output   []*expr.Expr

	// End is the final symbolic machine state, captured only when
	// Options.CaptureEndState is set (nil otherwise).
	End *EndState

	// PathFault, set when Status is StatusPanic, describes the panic
	// that killed this path (recovered at the per-path boundary).
	PathFault *PathFault

	// sig is the builder-independent path signature (a hash chain over
	// the appended path conditions); the parallel merge orders completed
	// paths by it.
	sig uint64
}

// Sig returns the builder-independent path signature: a hash chain over
// the structural digests of the appended path conditions. Unlike ID it
// names a path by its branch decisions, so reports from interrupted-
// and-resumed or parallel runs can be compared canonically.
func (p *PathResult) Sig() uint64 { return p.sig }

// Stats aggregates engine counters for one run.
type Stats struct {
	Instructions int64
	Forks        int64
	Infeasible   int64 // branch sides pruned by the solver
	PathsDone    int
	StatesKilled int
	MaxDepth     int
	MaxLiveSet   int
	DecodeCalls  int64 // actual decoder invocations (cache misses)
	Merges       int64 // state merges performed (MergeStates)

	// Compiled-execution counters (docs/compile.md), shared across
	// workers in parallel runs. Self-modified fetch windows are decoded
	// but never compiled, so they count in DecodeCalls only.
	CompiledUnits   int64 // instructions compiled to closure chains
	Superblocks     int64 // superblocks built (non-empty)
	SuperblockHits  int64 // superblock executions
	SuperblockInsns int64 // instructions executed inside superblocks
	Coverage        int   // distinct instruction addresses executed
	WallTime        time.Duration
	Solver          smt.Stats
	PathFaults      int64        // panics recovered at per-path boundaries
	Degraded        DegradeStats // graceful degradations by cause

	// WorkerStats has one entry per exploration worker when Workers > 1
	// (nil for serial runs). Per-worker numbers are schedule-dependent.
	WorkerStats []WorkerStat
}

// WorkerStat describes one exploration worker's share of a parallel run.
type WorkerStat struct {
	ID     int
	Steps  int64         // instructions executed by this worker
	Paths  int           // paths this worker completed
	Steals int64         // states claimed from other workers' forks
	Busy   time.Duration // time spent executing (vs waiting on the frontier)
	Solver smt.Stats
}

// Report is the outcome of Engine.Run.
type Report struct {
	Bugs  []Bug
	Paths []PathResult
	Stats Stats

	// Faults lists every panic recovered during the run — one entry
	// per dead path (also on that path's PathResult) plus any
	// non-path-scoped recoveries (e.g. a worker dying outside a step).
	Faults []PathFault
}

// CheckCtx is the context handed to checker hooks.
type CheckCtx struct {
	Engine *Engine
	State  *State
	PC     uint64
	Insn   string
	Guard  *expr.Expr // intra-instruction guard; nil = unconditional
}

// Checker observes execution events and reports bugs through
// CheckCtx.Report. Implementations live in internal/checker.
type Checker interface {
	Name() string
	// Div is called for every division with the symbolic divisor.
	Div(ctx *CheckCtx, divisor *expr.Expr)
	// MemAccess is called before a load (isWrite false) or store with the
	// unconcretized symbolic address.
	MemAccess(ctx *CheckCtx, addr *expr.Expr, cells uint, isWrite bool)
	// Jump is called when the program counter receives a non-constant
	// value that is not a branch between constant targets.
	Jump(ctx *CheckCtx, target *expr.Expr)
}

// Engine is a symbolic execution engine instance for one program.
type Engine struct {
	Arch   *adl.Arch
	B      *expr.Builder
	Solver *smt.Solver
	Dec    *decoder.Decoder
	Prog   *prog.Program

	Opts     Options
	checkers []Checker

	// Layout lists the valid memory regions for out-of-bounds checking.
	Layout []Region

	visits map[uint64]int64 // per-pc execution counts (coverage strategy)
	rng    *rand.Rand

	// compiled is the shared compiled-code cache (docs/compile.md);
	// workers of a parallel run share one instance. scratch is this
	// engine's private locals buffer for compiled execution — never
	// shared, it is mutable per-exec state.
	compiled *compileCache
	scratch  rtl.Scratch

	nextID int
	report Report

	// concEnv, when non-nil, pins symbolic choices (address
	// concretization, jump-target enumeration) to the concrete input of
	// an ongoing concolic replay.
	concEnv expr.Env

	// bugSeen suppresses duplicate findings at the same pc/checker. It is
	// sharded and concurrency-safe: in parallel runs one instance is
	// shared by every worker engine.
	bugSeen *bugDedup

	// cache memoizes solver queries; shared across workers and concolic
	// replays. Nil only when Options.NoQueryCache is set.
	cache *smt.QueryCache

	// inputNames is the precomputed "in<i>" variable-name table, so the
	// input-byte hot paths never fmt.Sprintf.
	inputNames []string

	// Parallel-run plumbing: shVisits replaces the visits map when this
	// engine is a worker of a parallel run (shared, sharded); par points
	// at the coordinating run state; workerID is this worker's index.
	shVisits *visitTable
	par      *parRun
	workerID int
	steals   int64         // states adopted from other workers' builders
	busy     time.Duration // time spent executing states

	// Telemetry (Options.Obs): m holds the resolved registry instruments
	// (all nil and no-op when telemetry is off), tr the exploration
	// tracer (nil when tracing is off). Workers share both.
	m  engineMetrics
	tr *obs.Tracer

	// cov is the architecture's semantic-coverage binding
	// (Options.Cover); nil when coverage is off. Workers share it — the
	// hit store is lock-free, so no per-worker merge is needed.
	cov *cover.ArchCov

	// inject is the armed fault injector (Options.Inject); nil in
	// production. Workers share it, so fired/surfaced counts are exact
	// across a parallel run.
	inject *faultinject.Injector

	// Exploration profiling (Options.Profile): profiler is the shared
	// fold target, prof this engine's (or worker's) unsynchronized
	// recording shard — nil when profiling is off, and every shard
	// method no-ops on nil.
	profiler *profile.Profiler
	prof     *profile.Shard

	// progress is the live run-progress block (Options.Progress); nil
	// when no observer asked for it. Workers share it — every update is
	// a single atomic op.
	progress *Progress

	// resumedWall is the wall time the interrupted legs of a resumed
	// run had already spent (Options.Resume); end-of-run and checkpoint
	// WallTime report the run-cumulative figure.
	resumedWall time.Duration
}

// StepSampleRate is the sampling factor of the engine_step_seconds
// histogram: one in this many instructions is timed. On hosts without a
// fast clock path, two time.Now() calls per instruction alone cost
// several percent of interpreter throughput; sampling keeps the latency
// distribution representative while keeping the always-on overhead
// within budget. Total step time estimates multiply the histogram sum
// by this factor.
const StepSampleRate = 8

// engineMetrics is the engine's resolved registry instrument set. The
// zero value (telemetry off) makes every record call a nil-receiver
// no-op; the `on` flag additionally guards the time.Now() calls the
// latency histograms need.
type engineMetrics struct {
	on            bool
	stepTick      uint64         // sampling counter for stepSeconds (per engine/worker)
	instructions  *obs.Counter   // engine_instructions_total
	forks         *obs.Counter   // engine_forks_total
	infeasible    *obs.Counter   // engine_infeasible_total
	pathsDone     *obs.Counter   // engine_paths_completed_total
	statesKilled  *obs.Counter   // engine_states_killed_total
	decodeCalls   *obs.Counter   // engine_decode_calls_total
	merges        *obs.Counter   // engine_merges_total
	frontierDepth *obs.Gauge     // engine_frontier_depth
	liveMax       *obs.Gauge     // engine_live_states_max
	stepSeconds   *obs.Histogram // engine_step_seconds
	decodeSeconds *obs.Histogram // engine_decode_seconds
	branchSeconds *obs.Histogram // engine_branch_check_seconds

	// Compiled-execution series (docs/compile.md).
	compiledUnits    *obs.Counter   // engine_compiled_units_total
	superblockBuilds *obs.Counter   // engine_superblock_builds_total
	superblockHits   *obs.Counter   // engine_superblock_hits_total
	superblockInsns  *obs.Counter   // engine_superblock_insns_total
	superblockLen    *obs.Histogram // engine_superblock_len

	// Robustness series (docs/robustness.md): fault_paths_total by
	// fault layer and degraded_total by degradation cause. The zero
	// arrays are nil counters, so recording stays a no-op when
	// telemetry is off.
	faults   [len(faultLayers)]*obs.Counter
	degraded [NumDegradeCauses]*obs.Counter
}

// newEngineMetrics resolves the engine instrument set against o's
// registry (get-or-create, so every engine sharing a registry feeds the
// same series). Returns the zero set when telemetry is off.
func newEngineMetrics(o *obs.Obs) engineMetrics {
	r := o.Registry()
	if r == nil {
		return engineMetrics{}
	}
	m := engineMetrics{
		on:            true,
		instructions:  r.Counter("engine_instructions_total", "Instructions executed symbolically"),
		forks:         r.Counter("engine_forks_total", "State forks at feasible branches"),
		infeasible:    r.Counter("engine_infeasible_total", "Branch sides pruned as unsatisfiable"),
		pathsDone:     r.Counter("engine_paths_completed_total", "Paths that reached a terminal status"),
		statesKilled:  r.Counter("engine_states_killed_total", "Live states dropped by a budget"),
		decodeCalls:   r.Counter("engine_decode_calls_total", "Decoder invocations (translation-cache misses)"),
		merges:        r.Counter("engine_merges_total", "Opportunistic state merges (MergeStates)"),
		frontierDepth: r.Gauge("engine_frontier_depth", "Live states queued for exploration"),
		liveMax:       r.Gauge("engine_live_states_max", "High-water mark of the live state set"),
		stepSeconds:   r.Histogram("engine_step_seconds", "Per-instruction symbolic step latency (sampled 1 in 8)", obs.TimeBuckets),
		decodeSeconds: r.Histogram("engine_decode_seconds", "Decoder invocation latency (translation-cache misses only)", obs.TimeBuckets),
		branchSeconds: r.Histogram("engine_branch_check_seconds", "Branch-feasibility decision latency (solver time)", obs.TimeBuckets),

		compiledUnits:    r.Counter("engine_compiled_units_total", "Instructions compiled to closure chains"),
		superblockBuilds: r.Counter("engine_superblock_builds_total", "Superblocks built (non-empty straightline prefixes)"),
		superblockHits:   r.Counter("engine_superblock_hits_total", "Superblock executions"),
		superblockInsns:  r.Counter("engine_superblock_insns_total", "Instructions executed inside superblocks"),
		superblockLen:    r.Histogram("engine_superblock_len", "Superblock chain length at build time", obs.SuperblockLenBuckets),
	}
	for i, l := range faultLayers {
		m.faults[i] = r.Counter(fmt.Sprintf("fault_paths_total{layer=%q}", l), faultPathsHelp)
	}
	for c := DegradeCause(0); c < NumDegradeCauses; c++ {
		m.degraded[c] = r.Counter(fmt.Sprintf("degraded_total{cause=%q}", c), "Graceful degradations (over-approximations) by cause")
	}
	return m
}

// Region is a half-open address range with a human-readable role.
type Region struct {
	Lo, Hi uint64 // [Lo, Hi)
	Role   string // "code", "data", "stack", ...
}

// NewEngine builds an engine for a program. The architecture model is the
// only machine-dependent input.
func NewEngine(a *adl.Arch, p *prog.Program, opts Options) *Engine {
	opts = opts.withDefaults()
	if opts.StackBase == 0 {
		if a.Bits <= 16 {
			opts.StackBase, opts.StackSize = uint64(1)<<(a.Bits-1)-8, 0x1000
		} else {
			opts.StackBase = 0x40000
		}
	}
	if opts.StackSize == 0 {
		opts.StackSize = 0x10000
	}
	b := expr.NewBuilder()
	b.Simplify = !opts.NoSimplify
	e := &Engine{
		Arch:     a,
		B:        b,
		Solver:   smt.New(b),
		Dec:      decoder.New(a),
		Prog:     p,
		Opts:     opts,
		visits:   make(map[uint64]int64),
		rng:      rand.New(rand.NewSource(opts.Seed + 1)),
		bugSeen:  newBugDedup(),
		compiled: newCompileCache(),
	}
	e.inputNames = make([]string, opts.InputBytes)
	for i := range e.inputNames {
		e.inputNames[i] = fmt.Sprintf("in%d", i)
	}
	if !opts.NoQueryCache {
		if opts.QueryCache != nil {
			e.cache = opts.QueryCache
		} else {
			e.cache = smt.NewQueryCache()
		}
		e.Solver.Cache = e.cache
	}
	e.m = newEngineMetrics(opts.Obs)
	e.tr = opts.Obs.Tracer().Scoped(opts.JobID)
	e.cov = opts.Cover.Bind(a)
	e.Dec.Cov = e.cov
	e.profiler = opts.Profile
	e.prof = opts.Profile.NewShard()
	e.progress = opts.Progress
	switch {
	case e.prof != nil && e.progress != nil:
		e.Solver.Prof = progressProf{shard: e.prof, prog: e.progress}
	case e.prof != nil:
		// Guarded: assigning a nil *Shard would make the interface
		// non-nil and re-arm the solver's per-query clock reads.
		e.Solver.Prof = e.prof
	case e.progress != nil:
		e.Solver.Prof = progressProf{prog: e.progress}
	}
	e.Solver.Obs = smt.NewSolverObs(opts.Obs.Registry())
	e.Solver.MaxConflicts = opts.MaxSolverConflicts
	e.Solver.QueryDeadline = opts.SolverDeadline
	e.inject = opts.Inject
	e.Dec.Inject = opts.Inject
	e.Solver.Inject = opts.Inject
	// Default layout: each program segment plus the stack.
	for _, s := range p.Segments {
		e.Layout = append(e.Layout, Region{Lo: s.Addr, Hi: s.Addr + uint64(len(s.Data)), Role: "image"})
	}
	e.Layout = append(e.Layout, Region{Lo: opts.StackBase - opts.StackSize, Hi: opts.StackBase + 1, Role: "stack"})
	return e
}

// AddChecker registers a checker for subsequent runs.
func (e *Engine) AddChecker(c Checker) { e.checkers = append(e.checkers, c) }

// AddRegion extends the valid-memory layout.
func (e *Engine) AddRegion(r Region) { e.Layout = append(e.Layout, r) }

// InRegion reports whether a concrete address lies in a valid region.
func (e *Engine) InRegion(addr uint64) bool {
	for _, r := range e.Layout {
		if addr >= r.Lo && addr < r.Hi {
			return true
		}
	}
	return false
}

// ValidAddr builds the predicate "addr..addr+cells-1 lies inside one
// valid region" for a symbolic address.
func (e *Engine) ValidAddr(addr *expr.Expr, cells uint) *expr.Expr {
	b := e.B
	valid := b.False()
	for _, r := range e.Layout {
		if r.Hi-r.Lo < uint64(cells) {
			continue
		}
		lo := b.Const(addr.Width(), r.Lo)
		last := b.Const(addr.Width(), r.Hi-uint64(cells))
		valid = b.BoolOr(valid, b.BoolAnd(b.UGe(addr, lo), b.ULe(addr, last)))
	}
	return valid
}

// ReportBug records a finding (deduplicated per checker+pc+msg, globally
// across workers in parallel runs).
func (ctx *CheckCtx) Report(check, msg string, model expr.Env) {
	e := ctx.Engine
	key := dedupKey{check: check, pc: ctx.PC, msg: msg}
	if !e.bugSeen.first(key) {
		return
	}
	if e.par != nil {
		e.par.bugCount.Add(1)
	}
	e.report.Bugs = append(e.report.Bugs, Bug{
		Check:   check,
		PC:      ctx.PC,
		Insn:    ctx.Insn,
		Msg:     msg,
		Model:   model,
		Input:   e.InputFromModel(model),
		PathID:  ctx.State.ID,
		FoundAt: e.report.Stats.Instructions,
	})
}

// SatUnder checks pathCond ∧ extra and returns the model on Sat.
func (ctx *CheckCtx) SatUnder(extra ...*expr.Expr) (bool, expr.Env) {
	e := ctx.Engine
	q := append(append([]*expr.Expr(nil), ctx.State.PathCond...), extra...)
	if ctx.Guard != nil {
		q = append(q, ctx.Guard)
	}
	r, err := e.Solver.Check(q...)
	if err != nil || r != smt.Sat {
		return false, nil
	}
	return true, e.Solver.Model()
}

// InputFromModel concretizes the symbolic input bytes under a model.
// Bytes the model does not constrain read as zero; the result is trimmed
// after the last constrained byte. Two passes over the precomputed name
// table keep this allocation-exact (one make of the trimmed length) on a
// path hot enough to show up in bug-dense runs.
func (e *Engine) InputFromModel(m expr.Env) []byte {
	last := 0
	for i := len(e.inputNames) - 1; i >= 0; i-- {
		if _, ok := m[e.inputNames[i]]; ok {
			last = i + 1
			break
		}
	}
	out := make([]byte, last)
	for i := 0; i < last; i++ {
		out[i] = byte(m[e.inputNames[i]])
	}
	return out
}

// inputName returns the symbolic-input variable name for byte i without
// formatting in the hot path.
func (e *Engine) inputName(i int) string {
	if i < len(e.inputNames) {
		return e.inputNames[i]
	}
	return fmt.Sprintf("in%d", i)
}

// canceled is the non-blocking poll behind Options.Cancel: one channel
// read per check, nil-safe.
func canceled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}
