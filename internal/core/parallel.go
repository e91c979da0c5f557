// Parallel path exploration: a pool of workers drains a shared,
// strategy-aware frontier of symbolic states. Expression builders and
// solvers are not goroutine-safe, so every worker is a full sub-Engine
// owning its own Builder, Solver and decode cache; read-only machinery
// (architecture model, decoder, program, layout, checkers) and the
// concurrency-safe tables (solver-query cache, bug dedup, visit counts)
// are shared. A worker that claims a state forked on another worker's
// builder re-homes it with a term-transfer pass (expr.Transfer) before
// executing it.
//
// Determinism: the set of paths explored is a property of the program,
// not the schedule, as long as no budget truncates the search. Workers
// collect paths and bugs privately; the coordinator merges them in a
// canonical order — paths by their builder-independent signature (a hash
// chain over the appended path conditions), bugs by (PC, Check, Msg) — so
// the merged report is bit-stable across schedules and worker counts.
// Schedule-dependent by nature (and documented as such in docs/engine.md):
// Bug.Model/Input/PathID/FoundAt, per-worker stats, MaxLiveSet and the
// cache hit/miss split.
package core

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/smt"
)

// dedupKey identifies a finding for global deduplication.
type dedupKey struct {
	check string
	pc    uint64
	msg   string
}

const dedupShards = 16

// bugDedup is a sharded concurrent set of findings already reported.
// Sharded sync.Maps keep the fast path (repeat findings at a hot pc)
// mutex-free.
type bugDedup struct {
	shards [dedupShards]sync.Map
}

func newBugDedup() *bugDedup { return &bugDedup{} }

// first reports whether k is new, claiming it atomically.
func (d *bugDedup) first(k dedupKey) bool {
	s := &d.shards[k.pc%dedupShards]
	_, loaded := s.LoadOrStore(k, struct{}{})
	return !loaded
}

const visitShards = 64

// visitTable is the shared per-pc execution counter of a parallel run
// (coverage strategy input and final Coverage stat).
type visitTable struct {
	shards [visitShards]visitShard
}

type visitShard struct {
	mu sync.Mutex
	m  map[uint64]int64
}

func newVisitTable() *visitTable {
	t := &visitTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[uint64]int64)
	}
	return t
}

func (t *visitTable) shard(pc uint64) *visitShard {
	return &t.shards[expr.MixHash(0, pc)%visitShards]
}

// inc bumps pc's execution count, reporting whether the address was new
// (first execution anywhere in the run).
func (t *visitTable) inc(pc uint64) bool {
	s := t.shard(pc)
	s.mu.Lock()
	s.m[pc]++
	first := s.m[pc] == 1
	s.mu.Unlock()
	return first
}

func (t *visitTable) get(pc uint64) int64 {
	s := t.shard(pc)
	s.mu.Lock()
	v := s.m[pc]
	s.mu.Unlock()
	return v
}

// distinct counts the executed instruction addresses.
func (t *visitTable) distinct() int {
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// frontier is the shared work queue of live states. pop blocks until work
// arrives, every worker is idle (global termination), or the run is
// stopped. The exploration strategy picks which state a pop returns; with
// several workers the strategy is necessarily approximate, since each
// worker also keeps one continuing child inline for builder locality.
type frontier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []*State
	waiting  int
	workers  int
	closed   bool
	strategy Strategy
	rng      *rand.Rand
	vt       *visitTable
	maxLen   int
	maxLive  int // MaxStates budget; pushes beyond it are killed
	killed   int64

	// Telemetry (nil-safe): queue depth gauge, kill counter, tracer and
	// profiler. The profiler is the run-level aggregate (not a worker
	// shard) because pushes race across workers; Profiler.Kill locks.
	depth     *obs.Gauge
	depthMax  *obs.Gauge
	killedCtr *obs.Counter
	tr        *obs.Tracer
	prof      *profile.Profiler
	prog      *Progress
}

func newFrontier(workers int, o Options, vt *visitTable, m engineMetrics, tr *obs.Tracer, prof *profile.Profiler) *frontier {
	f := &frontier{
		workers:   workers,
		strategy:  o.Strategy,
		rng:       rand.New(rand.NewSource(o.Seed + 1)),
		vt:        vt,
		maxLive:   o.MaxStates,
		depth:     m.frontierDepth,
		depthMax:  m.liveMax,
		killedCtr: m.statesKilled,
		tr:        tr,
		prof:      prof,
		prog:      o.Progress,
	}
	f.cond = sync.NewCond(&f.mu)
	return f
}

// push offers states to the pool. States beyond the live budget — or
// arriving after the run stopped — are dropped and counted as killed.
func (f *frontier) push(sts ...*State) {
	f.mu.Lock()
	for _, st := range sts {
		if f.closed || len(f.items) >= f.maxLive {
			f.killed++
			f.killedCtr.Inc()
			f.prof.Kill(st.PC)
			if f.tr != nil {
				reason := "max-states"
				if f.closed {
					reason = "run-stopped"
				}
				f.tr.Event("kill", -1, st.ID, st.PC, reason)
			}
			continue
		}
		f.items = append(f.items, st)
		f.cond.Signal()
	}
	if len(f.items) > f.maxLen {
		f.maxLen = len(f.items)
	}
	f.depth.Set(int64(len(f.items)))
	f.depthMax.Max(int64(f.maxLen))
	f.prog.setFrontier(int64(len(f.items)))
	f.mu.Unlock()
}

// pop removes the next state per the strategy, blocking while the queue
// is empty but some worker may still produce work. home is the popping
// worker's builder, used for transfer-avoiding affinity. ok is false when
// the exploration is over (all workers idle, or the run was stopped).
func (f *frontier) pop(home *expr.Builder) (st *State, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, false
		}
		if len(f.items) > 0 {
			return f.take(home), true
		}
		f.waiting++
		if f.waiting == f.workers {
			// Global quiescence: nobody holds a state, nothing queued.
			f.closed = true
			f.cond.Broadcast()
			f.waiting--
			return nil, false
		}
		f.cond.Wait()
		f.waiting--
	}
}

// affinityWindow bounds how far from the strategy's preferred end a pop
// may deviate to find a state already homed on the popping worker's
// builder (saving a term transfer). Small, so the search order stays an
// approximation of the strategy rather than per-worker DFS.
const affinityWindow = 8

// take picks an index per the strategy. Caller holds f.mu.
func (f *frontier) take(home *expr.Builder) *State {
	idx := len(f.items) - 1 // DFS default
	switch f.strategy {
	case DFS:
		for i := idx; i >= 0 && i > idx-affinityWindow; i-- {
			if f.items[i].home == home {
				idx = i
				break
			}
		}
	case BFS:
		idx = 0
		for i := 0; i < len(f.items) && i < affinityWindow; i++ {
			if f.items[i].home == home {
				idx = i
				break
			}
		}
	case Random:
		idx = f.rng.Intn(len(f.items))
	case Coverage:
		best := int64(1) << 62
		for i, s := range f.items {
			if v := f.vt.get(s.PC); v < best {
				best, idx = v, i
			}
		}
	}
	st := f.items[idx]
	f.items = append(f.items[:idx], f.items[idx+1:]...)
	f.depth.Set(int64(len(f.items)))
	f.prog.setFrontier(int64(len(f.items)))
	return st
}

// close stops the exploration: wakes all waiters and kills queued states.
func (f *frontier) close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		f.killed += int64(len(f.items))
		f.killedCtr.Add(int64(len(f.items)))
		for _, st := range f.items {
			f.prof.Kill(st.PC)
		}
		if f.tr != nil && len(f.items) > 0 {
			f.tr.Event("kill", -1, -1, 0,
				fmt.Sprintf("run-stopped (%d queued states)", len(f.items)))
		}
		f.items = nil
		f.depth.Set(0)
		f.prog.setFrontier(0)
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// parRun is the shared coordination state of one parallel Run.
type parRun struct {
	opts      Options
	front     *frontier
	pathsDone atomic.Int64
	bugCount  atomic.Int64
	deadline  time.Time

	errMu sync.Mutex
	err   error
}

// stopNow reports whether a global budget (or a cancellation) ended the
// run.
func (pr *parRun) stopNow() bool {
	if canceled(pr.opts.Cancel) {
		return true
	}
	if pr.pathsDone.Load() >= int64(pr.opts.MaxPaths) {
		return true
	}
	if pr.opts.StopOnBug && pr.bugCount.Load() > 0 {
		return true
	}
	if !pr.deadline.IsZero() && time.Now().After(pr.deadline) {
		return true
	}
	return false
}

func (pr *parRun) fail(err error) {
	pr.errMu.Lock()
	if pr.err == nil {
		pr.err = err
	}
	pr.errMu.Unlock()
	pr.front.close()
}

// workerEngine builds the sub-Engine for worker i: a private Builder
// and Solver over the shared read-only machinery.
func (e *Engine) workerEngine(i int, vt *visitTable, pr *parRun) *Engine {
	b := expr.NewBuilder()
	b.Simplify = !e.Opts.NoSimplify
	w := &Engine{
		Arch:       e.Arch,
		B:          b,
		Solver:     smt.New(b),
		Dec:        e.Dec,
		Prog:       e.Prog,
		Opts:       e.Opts,
		checkers:   e.checkers,
		Layout:     e.Layout,
		visits:     make(map[uint64]int64),
		compiled:   e.compiled,
		rng:        rand.New(rand.NewSource(e.Opts.Seed + 0x9e37 + int64(i))),
		bugSeen:    e.bugSeen,
		cache:      e.cache,
		inputNames: e.inputNames,
		shVisits:   vt,
		par:        pr,
		workerID:   i,
		m:          e.m,
		tr:         e.tr,
		cov:        e.cov,
		inject:     e.inject,
		profiler:   e.profiler,
		prof:       e.profiler.NewShard(),
		progress:   e.progress,
	}
	w.Solver.MaxConflicts = e.Opts.MaxSolverConflicts
	w.Solver.QueryDeadline = e.Opts.SolverDeadline
	w.Solver.Cache = e.cache
	w.Solver.Obs = e.Solver.Obs
	w.Solver.Inject = e.inject
	switch {
	case w.prof != nil && w.progress != nil:
		w.Solver.Prof = progressProf{shard: w.prof, prog: w.progress}
	case w.prof != nil:
		w.Solver.Prof = w.prof
	case w.progress != nil:
		w.Solver.Prof = progressProf{prog: w.progress}
	}
	return w
}

// adopt re-homes a state onto this worker's builder by transferring every
// live term. The state's register, path-condition and output slices are
// its own (clone copies them) and it was just popped, so they are
// rewritten in place; its memory pages may be shared with a sibling on
// another worker, so they are rewritten copy-on-write. Reading the source
// builder's nodes is safe because expression nodes are immutable.
func (e *Engine) adopt(st *State) {
	if st.home == e.B {
		return
	}
	e.steals++
	memo := make(map[*expr.Expr]*expr.Expr)
	for i, r := range st.regs {
		st.regs[i] = expr.Transfer(e.B, r, memo)
	}
	st.mem.each(func(a uint64, v *expr.Expr) { st.mem.set(a, expr.Transfer(e.B, v, memo)) })
	for i, c := range st.PathCond {
		st.PathCond[i] = expr.Transfer(e.B, c, memo)
	}
	for i, o := range st.Output {
		st.Output[i] = expr.Transfer(e.B, o, memo)
	}
	st.home = e.B
}

// workerDied removes a dead worker from the frontier's accounting so
// the quiescence test (everyone waiting, nothing queued) still
// terminates the run instead of deadlocking on a worker that will never
// pop again. Called from the worker-goroutine panic backstop.
func (f *frontier) workerDied() {
	f.mu.Lock()
	f.workers--
	if f.workers <= f.waiting {
		// Every surviving worker is already waiting: quiescence.
		f.closed = true
	}
	f.cond.Broadcast()
	f.mu.Unlock()
}

// work is one worker's loop: pop a state, adopt it, and run its chain
// inline until it completes or forks, pushing extra children to the
// shared frontier (where siblings become stealable work).
func (e *Engine) work(pr *parRun) {
	for {
		st, ok := pr.front.pop(e.B)
		if !ok {
			return
		}
		t0 := time.Now()
		burst := st.ID
		e.adopt(st)
		cur := st
		for cur != nil {
			if pr.stopNow() {
				pr.front.close()
				e.report.Stats.StatesKilled++
				e.m.statesKilled.Inc()
				e.prof.Kill(cur.PC)
				if e.tr != nil {
					e.tr.Event("kill", e.workerID, cur.ID, cur.PC, "global-budget")
				}
				break
			}
			children, err := e.safeStep(cur)
			if err != nil {
				pr.fail(err)
				break
			}
			cur = nil
			for _, c := range children {
				switch {
				case c.Done:
					e.finish(c)
					pr.pathsDone.Add(1)
				case cur == nil:
					cur = c // keep one child inline: no transfer, hot caches
				default:
					pr.front.push(c)
				}
			}
		}
		e.busy += time.Since(t0)
		if e.tr != nil {
			e.tr.Span("exec", e.workerID, burst, st.PC, t0, "")
		}
	}
}

// runParallel distributes Run over Opts.Workers workers and merges their
// private reports into a canonical, schedule-independent report.
func (e *Engine) runParallel() (*Report, error) {
	t0 := time.Now()
	e.report = Report{}
	e.bugSeen = newBugDedup()

	nw := e.Opts.Workers
	vt := newVisitTable()
	pr := &parRun{opts: e.Opts}
	pr.front = newFrontier(nw, e.Opts, vt, e.m, e.tr, e.profiler)
	if e.Opts.TimeBudget > 0 {
		pr.deadline = t0.Add(e.Opts.TimeBudget)
	}

	workers := make([]*Engine, nw)
	for i := range workers {
		workers[i] = e.workerEngine(i, vt, pr)
	}
	pr.front.push(workers[0].initialState())

	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *Engine) {
			defer wg.Done()
			// Backstop: panics escaping the per-path boundary (frontier
			// bookkeeping, adopt/transfer, merge plumbing) kill only
			// this worker. The frontier drops it from the quiescence
			// count and the fault is recorded on the worker's report.
			defer func() {
				if r := recover(); r != nil {
					pr.front.workerDied()
					w.recordFault(PathFault{
						Layer: layerOf(r, "sym"),
						Msg:   fmt.Sprint(r),
						Stack: stackTrace(),
					})
				}
			}()
			w.work(pr)
		}(w)
	}
	wg.Wait()
	if pr.err != nil {
		return nil, pr.err
	}

	e.mergeWorkerReports(workers, vt, pr)
	e.report.Stats.WallTime = time.Since(t0)
	e.snapshotCompileStats()
	return &e.report, nil
}

// mergeWorkerReports folds the per-worker reports into e.report in a
// canonical order and re-homes the surviving terms onto the coordinator's
// builder, so post-Run uses of e.B and e.Solver against the report (e.g.
// re-checking a path condition) keep working.
func (e *Engine) mergeWorkerReports(workers []*Engine, vt *visitTable, pr *parRun) {
	s := &e.report.Stats
	var paths []PathResult
	var bugs []Bug
	for _, w := range workers {
		ws := w.report.Stats
		s.Instructions += ws.Instructions
		s.Forks += ws.Forks
		s.Infeasible += ws.Infeasible
		s.PathsDone += ws.PathsDone
		s.StatesKilled += ws.StatesKilled
		s.DecodeCalls += ws.DecodeCalls
		s.Merges += ws.Merges
		if ws.MaxDepth > s.MaxDepth {
			s.MaxDepth = ws.MaxDepth
		}
		s.Solver.Add(w.Solver.Stats)
		s.PathFaults += ws.PathFaults
		s.Degraded.Add(ws.Degraded)
		e.report.Faults = append(e.report.Faults, w.report.Faults...)
		s.WorkerStats = append(s.WorkerStats, WorkerStat{
			ID:     w.workerID,
			Steps:  ws.Instructions,
			Paths:  ws.PathsDone,
			Steals: w.steals,
			Busy:   w.busy,
			Solver: w.Solver.Stats,
		})
		paths = append(paths, w.report.Paths...)
		bugs = append(bugs, w.report.Bugs...)
		e.profiler.Fold(w.prof)
	}
	pr.front.mu.Lock()
	s.StatesKilled += int(pr.front.killed)
	s.MaxLiveSet = pr.front.maxLen
	pr.front.mu.Unlock()
	s.Coverage = vt.distinct()

	// Canonical path order: the signature identifies the branch decisions
	// of the path independent of worker and schedule; the remaining keys
	// only break (vanishingly unlikely) signature ties.
	sort.Slice(paths, func(i, j int) bool {
		a, b := &paths[i], &paths[j]
		if a.sig != b.sig {
			return a.sig < b.sig
		}
		if a.Status != b.Status {
			return a.Status < b.Status
		}
		if a.EndPC != b.EndPC {
			return a.EndPC < b.EndPC
		}
		if a.Steps != b.Steps {
			return a.Steps < b.Steps
		}
		return a.Depth < b.Depth
	})
	memo := make(map[*expr.Expr]*expr.Expr)
	for i := range paths {
		paths[i].ID = i
		for k, c := range paths[i].PathCond {
			paths[i].PathCond[k] = expr.Transfer(e.B, c, memo)
		}
		for k, o := range paths[i].Output {
			paths[i].Output[k] = expr.Transfer(e.B, o, memo)
		}
		if end := paths[i].End; end != nil {
			for k, r := range end.Regs {
				end.Regs[k] = expr.Transfer(e.B, r, memo)
			}
			for a, v := range end.Mem {
				end.Mem[a] = expr.Transfer(e.B, v, memo)
			}
		}
	}
	sort.Slice(bugs, func(i, j int) bool {
		a, b := &bugs[i], &bugs[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
	sort.Slice(e.report.Faults, func(i, j int) bool {
		a, b := &e.report.Faults[i], &e.report.Faults[j]
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		return a.Msg < b.Msg
	})
	e.report.Paths = paths
	e.report.Bugs = bugs
}
