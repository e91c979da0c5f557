// Job lifecycle: admission-to-terminal state machine, the engine run
// with its recover boundary, and the JSONL event log results streaming
// reads from. Every failure a job can suffer — bad decode, engine
// error, recovered panic, injected fault — lands as a typed JobError
// with a fault record where one applies; the fault-injection contract
// ("fired faults always surface as typed errors, never bare 500s") is
// enforced here and proven by chaos_test.go.
package service

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adl"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/profile"
	"repro/internal/prog"
)

// Job is one admitted analysis.
type Job struct {
	id   string
	a    *adl.Arch
	p    *prog.Program
	mode string // explore|concolic
	opts core.Options

	// spec is the submitted spec verbatim — the durable job journal
	// records it so a restarted daemon can rebuild the job.
	spec JobSpec

	seed    []byte // concolic
	maxRuns int    // concolic

	// recovered marks a job rebuilt from the journal after a restart;
	// resumed additionally means its engine was seeded from a
	// checkpoint rather than the program entry point.
	recovered bool
	resumed   bool

	// attempt counts retries of transient failures (watchdog kills,
	// recovered panics) in this process; stalled is set by the watchdog
	// before it kills the run, so the failure is typed stalled rather
	// than canceled. retryPending tells the runner loop to re-run the
	// job instead of finishing it.
	attempt      int
	stalled      atomic.Bool
	retryPending bool

	// prof is the job's exploration profiler (internal/profile), armed
	// at admission and served by GET /v1/jobs/{id}/profile; the server
	// absorbs it into the daemon-wide aggregate when the job finishes.
	prof *profile.Profiler

	// progress is the job's live-progress block (core.Options.Progress),
	// armed at admission and sampled by the SSE stream at
	// GET /v1/jobs/{id}/events while the engine runs.
	progress *core.Progress

	// digest keys this job's configuration in the run ledger: same
	// image + same effective options = same baseline series.
	digest string

	cancelCh  chan struct{} // closed on cancel/kill; wired to opts.Cancel
	cancelReq atomic.Bool

	// admitted is closed once the job's "submitted" journal record has
	// been appended; no runner touches the job before that, so the
	// journal never holds a start or a finish ahead of its admission.
	admitted chan struct{}

	doneCh chan struct{} // closed when the terminal state is published

	mu        sync.Mutex
	state     string // queued|running|done|failed|canceled, as observers see it
	err       *JobError
	stats     *JobStats
	final     *outcome    // terminal outcome, recorded by finish and shown by publish
	coreStats *core.Stats // full engine stats for the ledger record
	events    []Event
	started   time.Time     // when the job left the queue
	wake      chan struct{} // closed+replaced on every emit/publish: results-stream wakeup
}

// outcome is a job's terminal state, recorded before it is published.
type outcome struct {
	state string
	err   *JobError
	stats *JobStats
}

func newJob(a *adl.Arch, p *prog.Program, mode string, opts core.Options, seed []byte, maxRuns int) *Job {
	j := &Job{
		a:        a,
		p:        p,
		mode:     mode,
		opts:     opts,
		seed:     seed,
		maxRuns:  maxRuns,
		cancelCh: make(chan struct{}),
		admitted: make(chan struct{}),
		doneCh:   make(chan struct{}),
		state:    StateQueued,
		wake:     make(chan struct{}),
	}
	j.opts.Cancel = j.cancelCh
	j.progress = &core.Progress{}
	j.opts.Progress = j.progress
	return j
}

func (j *Job) requestCancel() {
	j.cancelReq.Store(true)
	j.kill()
}

// kill closes the engine-facing cancel channel without marking the job
// user-canceled — the watchdog uses it to stop a stalled run that must
// then fail typed as stalled, not canceled. Idempotent; safe against a
// concurrent resetForRetry, which replaces the channel under j.mu.
func (j *Job) kill() {
	j.mu.Lock()
	select {
	case <-j.cancelCh:
	default:
		close(j.cancelCh)
	}
	j.mu.Unlock()
}

// resetForRetry rewinds a failed job to queued for another attempt: a
// fresh cancel channel (the watchdog may have closed the old one),
// cleared stall/error state and zeroed live-progress counters. The
// events of the failed attempt are kept — the stream shows the retry
// trail. Caller is the owning runner.
func (j *Job) resetForRetry() {
	j.mu.Lock()
	j.cancelCh = make(chan struct{})
	j.opts.Cancel = j.cancelCh
	j.state = StateQueued
	j.err = nil
	j.mu.Unlock()
	j.stalled.Store(false)
	j.progress.Reset()
}

// canceledEarly reports whether the job was canceled while still
// queued; if so it records the canceled outcome.
func (j *Job) canceledEarly() bool {
	if !j.cancelReq.Load() {
		return false
	}
	j.finish(StateCanceled, &JobError{Code: CodeCanceled, Msg: "canceled before running"}, nil)
	return true
}

func (j *Job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// wakeWaiters closes and replaces the broadcast channel. Caller holds
// j.mu.
func (j *Job) wakeWaitersLocked() {
	close(j.wake)
	j.wake = make(chan struct{})
}

// finish records the job's terminal outcome, exactly once. Observers
// do not see it until publish, which the server calls only after the
// outcome's durable writes (journal, ledger, profile) are done.
func (j *Job) finish(state string, err *JobError, stats *JobStats) {
	j.mu.Lock()
	if j.final == nil {
		j.final = &outcome{state: state, err: err, stats: stats}
	}
	j.mu.Unlock()
}

// outcome returns the recorded terminal outcome.
func (j *Job) outcome() outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return *j.final
}

// publish makes the recorded outcome visible: status, results waiters
// and the SSE done event all see it from here on. Called once, after
// finish.
func (j *Job) publish() {
	j.mu.Lock()
	j.state, j.err, j.stats = j.final.state, j.final.err, j.final.stats
	j.wakeWaitersLocked()
	j.mu.Unlock()
	close(j.doneCh)
}

func (j *Job) emit(ev Event) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.wakeWaitersLocked()
	j.mu.Unlock()
}

func (j *Job) eventsSnapshot() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// eventsSince returns the events emitted after index n, whether the job
// is terminal, and a channel that closes on the next emit or terminal
// transition. A results streamer loops: write fresh events, and when
// !terminal, block on the wakeup.
func (j *Job) eventsSince(n int) (evs []Event, terminal bool, wakeup <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n < len(j.events) {
		evs = append([]Event(nil), j.events[n:]...)
	}
	terminal = j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
	return evs, terminal, j.wake
}

// elapsed is the wall time since the job started running (0 while
// queued).
func (j *Job) elapsed() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() {
		return 0
	}
	return time.Since(j.started)
}

func (j *Job) statusString() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) status() *JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := &JobStatus{
		ID:        j.id,
		Arch:      j.p.Arch,
		Mode:      j.mode,
		Status:    j.state,
		Error:     j.err,
		Stats:     j.stats,
		Attempts:  j.attempt,
		Recovered: j.recovered,
		Resumed:   j.resumed,
	}
	return st
}

// runJob executes one job inside the service's recover boundary: a
// panic escaping the engine (including injected handler-level faults)
// is converted to a typed "panic" failure carrying the fault record
// when the panic was injected — never a crash, never an untyped error.
func (s *Server) runJob(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			je := &JobError{Code: CodePanic, Msg: fmt.Sprint(r)}
			if f, ok := faultinject.Observe(r); ok {
				je.Fault = &FaultRecord{Site: f.Site.String(), Injected: true, Msg: f.Error()}
			}
			j.emit(Event{Type: "fault", Fault: je.Fault})
			s.failJob(j, je, nil)
		}
	}()

	// The service consults the decode fault site once per job before
	// handing the program to the engine, mirroring how the decoder
	// consults it per instruction: chaos runs prove that admission-time
	// faults also surface as typed job errors.
	if k := s.cfg.Inject.Fire(faultinject.SiteDecode); k == faultinject.KindDecode {
		fr := &FaultRecord{Site: faultinject.SiteDecode.String(), Injected: true, Msg: faultinject.ErrDecode.Error()}
		j.emit(Event{Type: "fault", Fault: fr})
		s.failJob(j, &JobError{Code: CodeDecode, Msg: faultinject.ErrDecode.Error(), Fault: fr}, nil)
		return
	}

	// Stall watchdog: kills runs whose live-progress counters stop
	// moving for StallTimeout (journal.go). Scoped per attempt — the
	// deferred close retires it before any retry starts a new one.
	if s.cfg.StallTimeout > 0 {
		stop := make(chan struct{})
		defer close(stop)
		go s.watchdog(j, stop)
	}

	// Injected stall (chaos): hold the runner making no progress until
	// something kills the job — the watchdog (typed stalled) or a cancel
	// (typed canceled). A stalled run without a watchdog hangs until
	// canceled, which is exactly the failure mode the watchdog exists
	// to bound.
	if k := s.cfg.Inject.Fire(faultinject.SiteStall); k == faultinject.KindStall {
		j.mu.Lock()
		cancel := j.cancelCh
		j.mu.Unlock()
		<-cancel
		if j.stalled.Load() {
			fr := &FaultRecord{Site: faultinject.SiteStall.String(), Injected: true, Msg: "injected stall: no progress until killed"}
			j.emit(Event{Type: "fault", Fault: fr})
			s.failJob(j, &JobError{Code: CodeStalled,
				Msg: fmt.Sprintf("no progress for %v, killed by watchdog", s.cfg.StallTimeout), Fault: fr}, nil)
			return
		}
		j.finish(StateCanceled, &JobError{Code: CodeCanceled, Msg: "canceled while running"}, nil)
		return
	}

	// Serial explorations checkpoint periodically when crash safety is
	// armed; j.opts.Resume may already carry the last checkpoint of a
	// recovered job. The write happens synchronously on the exploration
	// goroutine: the engine's duty-cycle governor observes the full
	// marshal+write cost and stretches the pace so checkpointing stays
	// a bounded fraction of the run, even against a slow state dir.
	if s.journal != nil && j.checkpointable() {
		j.opts.CheckpointEvery = s.cfg.CheckpointInterval
		j.opts.Checkpoint = func(snap *core.Snapshot) { s.writeCheckpoint(j, snap) }
	}

	e := core.NewEngine(j.a, j.p, j.opts)
	for _, c := range Checkers() {
		e.AddChecker(c)
	}

	s.log.Info("job started", "job", j.id, "arch", j.p.Arch, "mode", j.mode)
	t0 := time.Now()
	switch j.mode {
	case "concolic":
		s.runConcolic(j, e, t0)
	default:
		s.runExplore(j, e, t0)
	}
}

func (s *Server) runExplore(j *Job, e *core.Engine, t0 time.Time) {
	rep, err := e.Run()
	if err != nil && j.opts.Resume != nil {
		// A checkpoint that passed CRC validation can still be rejected
		// by the engine (program changed under the state dir, parallel
		// override). Recovery never fails the job: drop the checkpoint
		// and rerun from the entry point.
		s.log.Warn("checkpoint resume rejected; restarting from entry", "job", j.id, "err", err)
		s.m.restoreFailed.Inc()
		j.opts.Resume = nil
		j.mu.Lock()
		j.resumed = false
		j.mu.Unlock()
		e = core.NewEngine(j.a, j.p, j.opts)
		for _, c := range Checkers() {
			e.AddChecker(c)
		}
		rep, err = e.Run()
	}
	if err != nil {
		s.failJob(j, &JobError{Code: CodeEngine, Msg: err.Error()}, nil)
		return
	}
	paths := make([]*PathEvent, len(rep.Paths))
	for i, p := range rep.Paths {
		paths[i] = &PathEvent{ID: p.ID, Status: p.Status.String(), EndPC: p.EndPC, Steps: p.Steps, Depth: p.Depth}
	}
	s.finishRun(j, t0, rep.Stats, paths, rep.Bugs, rep.Faults)
}

func (s *Server) runConcolic(j *Job, e *core.Engine, t0 time.Time) {
	rep, err := e.Concolic(j.seed, j.maxRuns)
	if err != nil {
		s.failJob(j, &JobError{Code: CodeEngine, Msg: err.Error()}, nil)
		return
	}
	paths := make([]*PathEvent, len(rep.Paths))
	for i, p := range rep.Paths {
		paths[i] = &PathEvent{ID: i, Status: p.Status.String(), Steps: p.Steps, Input: p.Input}
	}
	s.finishRun(j, t0, rep.Stats, paths, rep.Bugs, rep.Faults)
}

// finishRun is the tail of a completed run in either mode: the
// watchdog-stall check, the stats store, the path, bug, fault,
// coverage and done events, and the canceled-or-done finish.
func (s *Server) finishRun(j *Job, t0 time.Time, st core.Stats, paths []*PathEvent, bugs []core.Bug, faults []core.PathFault) {
	if j.stalled.Load() {
		// The watchdog killed the run; the partial report is the failed
		// attempt's, so only the typed fault goes to the event log.
		fr := &FaultRecord{Site: faultinject.SiteStall.String(),
			Msg: fmt.Sprintf("no progress for %v, killed by watchdog", s.cfg.StallTimeout)}
		j.emit(Event{Type: "fault", Fault: fr})
		s.failJob(j, &JobError{Code: CodeStalled, Msg: fr.Msg, Fault: fr}, nil)
		return
	}
	stats := jobStats(st, len(paths), len(bugs), t0)
	j.mu.Lock()
	j.coreStats = &st
	j.mu.Unlock()
	for _, p := range paths {
		j.emit(Event{Type: "path", Path: p})
	}
	for _, b := range bugs {
		j.emit(Event{Type: "bug", Bug: &BugEvent{
			Check: b.Check, PC: b.PC, Insn: b.Insn, Msg: b.Msg, Input: b.Input,
		}})
	}
	for _, f := range faults {
		j.emit(Event{Type: "fault", Fault: &FaultRecord{Layer: f.Layer, PC: f.PC, Msg: f.Msg}})
	}
	j.emit(Event{Type: "coverage", Coverage: &CoverageEvent{Covered: st.Coverage}})
	j.emit(Event{Type: "done", Done: stats})

	if j.cancelReq.Load() {
		j.finish(StateCanceled, &JobError{Code: CodeCanceled, Msg: "canceled while running"}, stats)
		return
	}
	j.finish(StateDone, nil, stats)
}

// jobStats is the job's summary of one finished run: the engine's
// counters plus the report's path and bug counts.
func jobStats(st core.Stats, paths, bugs int, t0 time.Time) *JobStats {
	return &JobStats{
		Paths:        paths,
		Bugs:         bugs,
		Instructions: st.Instructions,
		Forks:        st.Forks,
		SolverQs:     st.Solver.Queries,
		CacheHits:    st.Solver.CacheHits,
		CacheMisses:  st.Solver.CacheMisses,
		PathFaults:   st.PathFaults,
		Degraded:     st.Degraded.Total(),
		Coverage:     st.Coverage,
		WallMS:       time.Since(t0).Milliseconds(),
	}
}
