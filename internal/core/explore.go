// The exploration loop. Every run — one worker or many — is the same
// loop: a worker takes a live state from the run's frontier, steps it
// and settles its successors, completed paths into its report and live
// states back into the frontier. Options.Workers sets how many workers
// run the loop; worker 0 is the calling engine on the caller's
// goroutine, so a one-worker run starts no goroutine and takes no
// builder lock.
//
// Every worker interns into the engine's one expression builder, which
// Run shares (expr.Builder.Share) before the first worker starts, so a
// state runs on any worker as it is. Solvers are stateful, so every
// other worker is a sub-Engine owning its own Solver and scratch;
// read-only machinery (architecture model, decoder, program, layout,
// checkers) and the concurrency-safe tables (builder, solver-query
// cache, compile cache, bug dedup, visit counts) are shared.
//
// Determinism: a one-worker run is fully deterministic — path order and
// IDs, bugs and every counter. With several workers the set of paths
// explored is a property of the program, not the schedule, as long as
// no budget truncates the search. Workers collect paths and bugs
// privately; the merge orders them canonically — paths by their
// builder-independent signature (a hash chain over the appended path
// conditions), bugs by (PC, Check, Msg) — so the merged report is
// bit-stable across schedules and worker counts. Schedule-dependent by
// nature (and documented as such in docs/engine.md):
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
	"repro/internal/smt"
)

// ckptDutyFactor bounds the checkpoint duty cycle: the gap until the
// next checkpoint is at least this multiple of the previous one's
// synchronous cost, so snapshot building consumes at most ~1/128 <1%
// of a run's wall time no matter how large the path list grows.
const ckptDutyFactor = 128

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

// visitTable is the engine's per-pc execution counter, shared by every
// worker of a run: the coverage strategy's input, the Coverage stat and
// concolic search's new-address count.
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
// (first execution anywhere in the run). It is called exactly once per
// executed instruction, in a superblock or not.
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

// frontier is the shared coordination state of one Run: the queue of
// live states and the run-wide counts its stop check reads. pop blocks
// until work arrives, every worker is idle (global termination), or the
// run is stopped. The exploration strategy picks which state a pop
// returns; with several workers the strategy is necessarily
// approximate, since each worker also keeps a DFS child inline.
type frontier struct {
	opts  Options
	start time.Time

	mu      sync.Mutex
	cond    *sync.Cond
	items   []*State
	queued  atomic.Int64 // len(items), readable without mu
	waiting int
	workers int
	closed  bool
	reason  string // the stop that closed the frontier; "" at quiescence
	err     error  // the first worker error, under mu
	rng     *rand.Rand
	vt      *visitTable

	pathsDone atomic.Int64
	bugCount  atomic.Int64

	// keep: workers keep their last live successor inline instead of
	// queueing it (DFS without merging) — it is the state a DFS pick
	// would take next.
	keep bool
	// merge, when set (MergeStates in a one-worker run), folds the
	// queued states after every admission.
	merge func([]*State) []*State
}

// size is the number of queued states.
func (f *frontier) size() int { return int(f.queued.Load()) }

// stopReason names the budget or event that ends the run — "max-paths",
// "stop-on-bug" or "canceled" — or returns "" while it goes on. Every
// worker checks it before each step.
func (f *frontier) stopReason() string {
	switch {
	case f.pathsDone.Load() >= int64(f.opts.MaxPaths):
		return "max-paths"
	case f.opts.StopOnBug && f.bugCount.Load() > 0:
		return "stop-on-bug"
	case canceled(f.opts.Cancel):
		return "canceled"
	}
	return ""
}

// admit adds a step's live successors to the live set in order, killing
// the ones beyond the MaxStates budget or arriving after the run
// stopped. Under keep, the last admitted state is returned to the
// calling worker instead of queued; it counts against the budget all
// the same. rec is the calling worker's recorder.
func (f *frontier) admit(rec *recorder, sts []*State) (cur *State) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, st := range sts {
		live := len(f.items)
		if cur != nil {
			live++
		}
		switch {
		case f.closed:
			rec.kill(st, f.reason)
		case live >= f.opts.MaxStates:
			rec.kill(st, "max-states")
		default:
			if cur != nil {
				f.items = append(f.items, cur)
				f.cond.Signal()
			}
			cur = st
		}
	}
	if cur != nil && !f.keep {
		f.items = append(f.items, cur)
		f.cond.Signal()
		cur = nil
	}
	if f.merge != nil {
		f.items = f.merge(f.items)
	}
	f.queued.Store(int64(len(f.items)))
	return cur
}

// pop removes the next state per the strategy, blocking while the queue
// is empty but some worker may still produce work. ok is false when the
// exploration is over (all workers idle, or the run was stopped).
func (f *frontier) pop() (st *State, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for {
		if f.closed {
			return nil, false
		}
		if len(f.items) > 0 {
			return f.take(), true
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

// take picks an index per the strategy. Caller holds f.mu.
func (f *frontier) take() *State {
	idx := len(f.items) - 1 // DFS default
	switch f.opts.Strategy {
	case BFS:
		idx = 0
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
	f.queued.Store(int64(len(f.items)))
	return st
}

// stop ends the run for reason: it kills the queued states together
// with cur, the stopping worker's own state, and wakes every waiting
// worker. A worker that finds the run already stopped kills only its
// own state. err, when set, is a worker's failure, which Run returns.
func (f *frontier) stop(rec *recorder, reason string, cur *State, err error) {
	f.mu.Lock()
	live := f.items
	if cur != nil {
		live = append(live, cur)
	}
	rec.killAll(live, reason, "live")
	f.items = nil
	f.queued.Store(0)
	if f.err == nil {
		f.err = err
	}
	if !f.closed {
		f.closed, f.reason = true, reason
		f.cond.Broadcast()
	}
	f.mu.Unlock()
}

// workerDied removes a dead worker from the frontier's accounting so
// the quiescence test (everyone waiting, nothing queued) still
// terminates the run instead of deadlocking on a worker that will never
// pop again. Called from the worker's panic backstop.
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

// Run explores the program from its entry point (or from Options.Resume)
// and returns the report. Options.Workers workers, at least one, run the
// exploration loop over one shared frontier.
func (e *Engine) Run() (*Report, error) {
	if err := e.claim(); err != nil {
		return nil, err
	}
	nw := max(e.Opts.Workers, 1)
	if nw > 1 && e.Opts.Resume != nil {
		return nil, fmt.Errorf("core: Resume requires a serial run (Workers = %d)", e.Opts.Workers)
	}
	start := time.Now()
	defer e.rec.fold()
	var live []*State
	if e.Opts.Resume != nil {
		var err error
		if live, err = e.restore(e.Opts.Resume); err != nil {
			return nil, err
		}
	} else {
		live = []*State{e.initialState()}
	}
	f := &frontier{
		opts:    e.Opts,
		start:   start,
		items:   live,
		workers: nw,
		rng:     rand.New(rand.NewSource(e.Opts.Seed + 1)),
		vt:      e.visits, // restore replaces the engine's table
	}
	f.cond = sync.NewCond(&f.mu)
	f.queued.Store(int64(len(live)))
	f.pathsDone.Store(int64(e.report.Stats.PathsDone))
	f.bugCount.Store(int64(len(e.report.Bugs)))
	if nw == 1 && e.Opts.MergeStates {
		f.merge = e.mergeLive
	}
	f.keep = e.Opts.Strategy == DFS && f.merge == nil
	e.front = f

	workers := []*Engine{e}
	if nw > 1 {
		e.B.Share()
	}
	var wg sync.WaitGroup
	for i := 1; i < nw; i++ {
		w := e.workerEngine(i, f)
		workers = append(workers, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.explore(f)
		}()
	}
	e.explore(f)
	wg.Wait()
	if f.err != nil {
		return nil, f.err
	}

	s := &e.report.Stats
	if nw > 1 {
		e.mergeWorkers(workers)
	}
	e.rec.frontier(0)
	s.Solver = e.Solver.Stats
	for _, w := range workers[1:] {
		s.Solver.Add(w.Solver.Stats)
	}
	s.Coverage = e.visits.distinct()
	s.WallTime = e.resumedWall + time.Since(f.start)
	e.snapshotCompileStats()
	return &e.report, nil
}

// explore is one worker's exploration loop. It takes a state from the
// frontier and runs it step by step; after each step the worker keeps
// the state it continues with (under DFS, the last live successor) and
// returns to the frontier when it has none. Every step first checks the
// run's stops. A step that does not fork, under DFS, takes no frontier
// lock and reads no clock.
func (e *Engine) explore(f *frontier) {
	// Backstop: panics escaping the per-path boundary (frontier
	// bookkeeping, merge plumbing) kill only this worker. The frontier
	// drops it from the quiescence count and the fault is recorded on
	// the worker's report.
	defer func() {
		if p := recover(); p != nil {
			f.workerDied()
			e.recordFault(PathFault{Layer: layerOf(p, "sym"), Msg: fmt.Sprint(p), Stack: stackTrace()}, nil)
		}
	}()
	// Checkpoints are for one-worker runs only, where no other worker
	// touches f.items; a duty-cycle governor paces them.
	parallel := e.Opts.Workers > 1
	ckpt := e.Opts.Checkpoint
	if parallel {
		ckpt = nil
	}
	ckptEvery := e.Opts.CheckpointEvery
	denseCkpt := ckptEvery < 0 // every opportunity, no governor (tests)
	if ckptEvery <= 0 {
		ckptEvery = time.Second
	}
	ckptGap, lastCkpt := ckptEvery, f.start

	var (
		cur     *State
		t0      time.Time // start of the current burst (parallel runs)
		burstID int
		burstPC uint64
	)
	endBurst := func() {
		if !t0.IsZero() {
			e.busy += time.Since(t0)
			e.rec.burst(burstID, burstPC, t0)
			t0 = time.Time{}
		}
	}
	defer endBurst()
	for {
		if ckpt != nil && (cur != nil || len(f.items) > 0) && (denseCkpt || time.Since(lastCkpt) >= ckptGap) {
			live := f.items
			if cur != nil {
				live = append(live[:len(live):len(live)], cur)
			}
			tc := time.Now()
			ckpt(e.snapshot(live, time.Since(f.start)))
			lastCkpt = time.Now()
			// Duty-cycle governor: a snapshot's cost grows with the
			// completed-path list, so a fixed pace would eventually
			// spend arbitrary fractions of the run on checkpointing.
			// Stretch the gap to a multiple of the last checkpoint's
			// synchronous cost instead — the overhead stays bounded
			// (~1/ckptDutyFactor) and only freshness degrades.
			ckptGap = ckptEvery
			if g := lastCkpt.Sub(tc) * ckptDutyFactor; g > ckptGap {
				ckptGap = g
			}
		}
		if cur == nil {
			var ok bool
			if cur, ok = f.pop(); !ok {
				return
			}
			if parallel { // bursts feed WorkerStats and the trace
				t0, burstID, burstPC = time.Now(), cur.ID, cur.PC
			}
		}
		if reason := f.stopReason(); reason != "" {
			f.stop(&e.rec, reason, cur, nil)
			return
		}
		e.rec.frontier(f.size() + 1)
		children, err := e.safeStep(cur)
		if err != nil {
			f.stop(&e.rec, "error", nil, err)
			return
		}
		if cur = e.settle(f, children); cur == nil {
			endBurst()
		}
	}
}

// settle ends a step's completed successors and admits the live ones
// to the frontier, returning the state the worker continues with (nil:
// take the next one from the frontier).
func (e *Engine) settle(f *frontier, children []*State) *State {
	if f.keep && len(children) == 1 && !children[0].Done && f.size() < f.opts.MaxStates {
		return children[0] // no fork: the state goes on, the frontier is untouched
	}
	live := children[:0]
	for _, c := range children {
		if c.Done {
			e.finish(c)
		} else {
			live = append(live, c)
		}
	}
	return f.admit(&e.rec, live)
}

// workerEngine builds the sub-Engine for worker i ≥ 1: a private
// Solver over the engine's shared builder and read-only machinery.
func (e *Engine) workerEngine(i int, f *frontier) *Engine {
	w := &Engine{
		Arch:       e.Arch,
		B:          e.B,
		Solver:     smt.New(e.B),
		Dec:        e.Dec,
		Prog:       e.Prog,
		Opts:       e.Opts,
		checkers:   e.checkers,
		Layout:     e.Layout,
		visits:     e.visits,
		compiled:   e.compiled,
		bugSeen:    e.bugSeen,
		cache:      e.cache,
		inputNames: e.inputNames,
		front:      f,
		cov:        e.cov,
		inject:     e.inject,
	}
	w.rec = e.rec.worker(i, &w.report.Stats)
	w.Solver.MaxConflicts = e.Opts.MaxSolverConflicts
	w.Solver.QueryDeadline = e.Opts.SolverDeadline
	w.Solver.Cache = e.cache
	w.Solver.Obs = e.Solver.Obs
	w.Solver.Inject = e.inject
	w.Solver.Prof = w.rec.queryProf()
	return w
}

// mergeWorkers folds the private reports of workers[1:] into e's —
// worker 0's — in a canonical order. Every worker interned into e.B, so
// post-Run uses of e.B and e.Solver against the report (e.g. re-checking
// a path condition) work on the merged terms as they are.
func (e *Engine) mergeWorkers(workers []*Engine) {
	s := &e.report.Stats
	for _, w := range workers {
		ws := w.report.Stats
		s.WorkerStats = append(s.WorkerStats, WorkerStat{
			ID:     w.rec.wid,
			Steps:  ws.Instructions,
			Paths:  ws.PathsDone,
			Busy:   w.busy,
			Solver: w.Solver.Stats,
		})
	}
	paths, bugs := e.report.Paths, e.report.Bugs
	for _, w := range workers[1:] {
		e.rec.add(&w.rec)
		e.report.Faults = append(e.report.Faults, w.report.Faults...)
		paths = append(paths, w.report.Paths...)
		bugs = append(bugs, w.report.Bugs...)
	}

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
	for i := range paths {
		paths[i].ID = i
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
