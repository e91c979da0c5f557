// Server: the multi-tenant scheduler behind the symexd job API. Jobs
// are admitted against a bounded queue (backpressure, typed 429),
// executed by a fixed runner pool under the per-job resource governor
// (worker caps, solver deadlines, state-term budgets), and share one
// solver-query cache backed by the persistent cross-run log of
// internal/smt/persist.go. A background ticker flushes the cache;
// Close drains, flushes and releases the writer lease.
package service

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/faultinject"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/smt"
	"repro/internal/wal"
)

// Config tunes a Server. The zero value is usable: every limit falls
// back to the moderate defaults below, persistence is off until
// CacheFile is set, and a fresh obs registry is created when none is
// supplied.
type Config struct {
	// Scheduler.
	MaxConcurrent int // jobs running at once (default 2)
	QueueDepth    int // admitted-but-not-running jobs before 429 (default 64)

	// Per-job resource governor (docs/robustness.md). Submitted budgets
	// are clamped to the caps, never rejected.
	DefaultWorkers   int           // engine workers when the spec says 0 (default 1)
	MaxWorkersPerJob int           // cap on spec.Workers (default 4)
	MaxStepsCap      int64         // cap on spec.MaxSteps (default 200000)
	MaxPathsCap      int           // cap on spec.MaxPaths (default 4096)
	MaxInputBytes    int           // cap on spec.Inputs (default 64)
	MaxRunsCap       int           // cap on concolic spec.MaxRuns (default 256)
	SolverDeadline   time.Duration // per-query wall clock (default 2s)
	MaxStateTerms    int           // symbolic-footprint budget (0 = off)

	// Persistent solver cache.
	CacheFile       string        // "" disables persistence
	CacheMaxEntries int           // compaction bound (default smt default)
	FlushInterval   time.Duration // background flush period (default 2s)

	// Completed-job retention: terminal jobs beyond this count are
	// evicted oldest-first so a long-lived daemon's job table stays
	// bounded (default 1024).
	RetainDone int

	// LedgerDir, when set, arms the run ledger (internal/ledger): every
	// completed job appends one record keyed by its config digest, and
	// the history is served at GET /v1/runs (+ per-digest trend at
	// GET /v1/runs/{digest}). "" disables recording; the endpoints then
	// answer 404.
	LedgerDir string

	// Crash safety (journal.go, docs/service.md). StateDir, when set,
	// arms the durable job journal and per-job exploration checkpoints:
	// jobs survive a daemon crash/restart against the same directory,
	// and interrupted serial explorations resume from their last
	// checkpoint. "" disables both.
	StateDir           string
	CheckpointInterval time.Duration // checkpoint pace for serial explores (default 500ms)

	// Stall watchdog and retry policy (docs/robustness.md). StallTimeout
	// 0 disables the watchdog. RetryMax 0 disables retries; transient
	// failures (recovered panics, watchdog kills) are retried up to
	// RetryMax times with exponential backoff starting at RetryBackoff.
	StallTimeout time.Duration
	RetryMax     int
	RetryBackoff time.Duration // first-retry backoff (default 50ms)

	// SnapshotInterval paces the per-job SSE progress stream
	// (GET /v1/jobs/{id}/events): one snapshot of the job's live
	// counters per interval (default 250ms).
	SnapshotInterval time.Duration

	// Telemetry and chaos. Obs nil means a fresh registry (the service
	// always has one — /metrics is part of the API). Cover and Inject
	// are optional and shared by every job's engine.
	Obs    *obs.Obs
	Cover  *cover.Collector
	Inject *faultinject.Injector

	// Logger receives the structured job-lifecycle and request log
	// (log/slog). Nil discards — the library default stays silent; the
	// symexd binary wires a text or JSON handler via -log-format.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultWorkers <= 0 {
		c.DefaultWorkers = 1
	}
	if c.MaxWorkersPerJob <= 0 {
		c.MaxWorkersPerJob = 4
	}
	if c.MaxStepsCap <= 0 {
		c.MaxStepsCap = 200000
	}
	if c.MaxPathsCap <= 0 {
		c.MaxPathsCap = 4096
	}
	if c.MaxInputBytes <= 0 {
		c.MaxInputBytes = 64
	}
	if c.MaxRunsCap <= 0 {
		c.MaxRunsCap = 256
	}
	if c.SolverDeadline == 0 {
		c.SolverDeadline = 2 * time.Second
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 2 * time.Second
	}
	if c.RetainDone <= 0 {
		c.RetainDone = 1024
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 250 * time.Millisecond
	}
	if c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 500 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.Obs == nil {
		c.Obs = obs.New()
	}
	if c.Cover != nil && c.Obs.Cover == nil {
		c.Obs.Cover = c.Cover
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is one symexd instance: scheduler, shared cache, telemetry.
type Server struct {
	cfg Config

	cache   *smt.QueryCache
	persist *smt.PersistentCache // nil when persistence is off
	ledger  *ledger.Ledger       // nil when the run ledger is off
	journal *wal.Log             // nil when StateDir is unset (no crash safety)

	obsHandler http.Handler
	m          serviceMetrics
	base       metricsBase
	log        *slog.Logger

	// aggProf accumulates every finished job's exploration profile, so
	// /debug/profile serves a daemon-lifetime guest-code profile.
	aggProf *profile.Profiler

	// Startup recovery tallies (journal replay in New), for the startup
	// log line and smokes.
	recoveredN int
	resumedN   int

	mu       sync.Mutex
	draining bool
	seq      int
	jobs     map[string]*Job
	doneIDs  []string // terminal jobs in completion order, for retention

	queue chan *Job
	wg    sync.WaitGroup // runner pool

	flushQuit chan struct{}
	flushDone chan struct{}
}

// New builds a Server, loading the persistent cache (if configured) and
// starting the runner pool and the flush ticker. A second process
// already holding the cache file's writer lease degrades this server to
// read-only persistence — jobs still run and benefit from the loaded
// entries, but flushes are skipped (smt.ErrReadOnly semantics).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   smt.NewQueryCache(),
		jobs:    make(map[string]*Job),
		log:     cfg.Logger,
		aggProf: profile.New(profile.Meta{ADL: "all"}),
	}
	if cfg.CacheFile != "" {
		p, err := smt.OpenPersistentCache(cfg.CacheFile, s.cache, smt.PersistOptions{
			MaxEntries: cfg.CacheMaxEntries,
		})
		if err != nil {
			return nil, fmt.Errorf("service: opening cache file: %w", err)
		}
		s.persist = p
	}
	if cfg.LedgerDir != "" {
		l, err := ledger.Open(cfg.LedgerDir)
		if err != nil {
			return nil, fmt.Errorf("service: opening run ledger: %w", err)
		}
		s.ledger = l
		if l.ReadOnly() {
			cfg.Logger.Warn("run ledger attached read-only: another process holds the writer lease",
				"dir", cfg.LedgerDir)
		}
	}
	if cfg.Obs.Profile == nil {
		cfg.Obs.Profile = s.aggProf
	}
	s.obsHandler = obs.Handler(cfg.Obs)
	s.m = newServiceMetrics(cfg.Obs.Registry())

	// Replay the job journal before the queue exists so its capacity can
	// absorb every recovered job on top of QueueDepth fresh admissions —
	// a restart never loses queued work to its own backpressure.
	var recovered []*Job
	if cfg.StateDir != "" {
		var err error
		if recovered, err = s.openJournal(); err != nil {
			return nil, err
		}
	}
	s.queue = make(chan *Job, cfg.QueueDepth+len(recovered))
	for _, j := range recovered {
		close(j.admitted) // compaction rewrote its submitted record
		s.jobs[j.id] = j
		s.queue <- j
		s.m.recovered.Inc()
		if j.resumed {
			s.resumedN++
		}
		s.log.Info("job recovered from journal", "job", j.id, "arch", j.p.Arch,
			"mode", j.mode, "resumed", j.resumed)
	}
	s.recoveredN = len(recovered)
	s.refreshMetrics()

	for i := 0; i < cfg.MaxConcurrent; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	s.flushQuit = make(chan struct{})
	s.flushDone = make(chan struct{})
	go s.flusher()
	return s, nil
}

// Cache exposes the shared solver-query cache (tests and experiments).
func (s *Server) Cache() *smt.QueryCache { return s.cache }

// PersistStats reports the persistence counters (zero value when
// persistence is off).
func (s *Server) PersistStats() smt.PersistStats {
	if s.persist == nil {
		return smt.PersistStats{}
	}
	return s.persist.Stats()
}

// runner is one slot of the pool: it pulls admitted jobs off the queue
// until the queue is closed and drained. The inner loop is the retry
// engine: failJob flags a transient failure instead of finishing the
// job, and the runner re-runs it after exponential backoff — the job
// never re-enters the queue, so retries cannot race shutdown's
// queue close.
func (s *Server) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		<-j.admitted
		s.m.queueDepth.Set(int64(len(s.queue)))
		if j.canceledEarly() {
			s.finishJob(j)
			continue
		}
		for {
			j.setRunning()
			s.m.running.Add(1)
			s.journalAppend(journalRecord{Type: recStarted, ID: j.id, Attempt: j.attempts()})
			s.runJob(j)
			s.m.running.Add(-1)
			if !j.takeRetry() {
				break
			}
			time.Sleep(s.retryDelay(j.attempts()))
			if j.cancelReq.Load() || s.drainingNow() {
				j.finish(StateCanceled, &JobError{Code: CodeCanceled, Msg: "canceled during retry backoff"}, nil)
				break
			}
			j.resetForRetry()
		}
		s.finishJob(j)
	}
}

// flusher periodically flushes the shared cache to the persistent log
// and refreshes the service gauges.
func (s *Server) flusher() {
	defer close(s.flushDone)
	t := time.NewTicker(s.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.persist != nil {
				s.persist.Flush() // ErrReadOnly is expected for followers
			}
			s.refreshMetrics()
		case <-s.flushQuit:
			return
		}
	}
}

// Submit validates and admits a job. It returns the queued status, or a
// typed error: bad_request (malformed image/spec), queue_full
// (backpressure, HTTP 429) or draining (shutdown, HTTP 503).
func (s *Server) Submit(spec JobSpec) (*JobStatus, *JobError) {
	j, jerr := s.buildJob(spec)
	if jerr != nil {
		s.m.rejected(jerr.Code)
		return nil, jerr
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.m.rejected(CodeDraining)
		return nil, &JobError{Code: CodeDraining, Msg: "server is shutting down"}
	}
	// Enqueue under the lock: Close flips draining and closes the queue
	// under the same lock, so no send can race the close.
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.m.rejected(CodeQueueFull)
		return nil, &JobError{Code: CodeQueueFull, Msg: fmt.Sprintf("queue full (%d jobs waiting)", s.cfg.QueueDepth)}
	}
	s.seq++
	// The job ID is the correlation key across every observability
	// surface: trace events (obs.Tracer.Scoped), the per-job exploration
	// profile, the structured log, and the durable journal.
	s.adoptJob(j, fmt.Sprintf("j%06d", s.seq), spec)
	s.jobs[j.id] = j
	s.mu.Unlock()

	s.journalAppend(journalRecord{Type: recSubmitted, ID: j.id, Spec: &spec})
	// The status is read before the runner may start the job, so the
	// caller always sees it queued.
	st := j.status()
	close(j.admitted)
	s.m.admitted.Inc()
	s.m.queueDepth.Set(int64(len(s.queue)))
	s.log.Info("job admitted", "job", j.id, "arch", j.p.Arch, "mode", j.mode,
		"workers", j.opts.Workers, "queue_depth", len(s.queue))
	return st, nil
}

// buildJob validates a spec against the governor caps and prepares the
// runnable job. Pure validation — no shared state is touched.
func (s *Server) buildJob(spec JobSpec) (*Job, *JobError) {
	if len(spec.Image) == 0 {
		return nil, &JobError{Code: CodeBadRequest, Msg: "empty program image"}
	}
	p, err := prog.Unmarshal(spec.Image)
	if err != nil {
		return nil, &JobError{Code: CodeBadRequest, Msg: "bad program image: " + err.Error()}
	}
	if spec.Arch != "" && spec.Arch != p.Arch {
		return nil, &JobError{Code: CodeBadRequest, Msg: fmt.Sprintf("arch %q does not match image arch %q", spec.Arch, p.Arch)}
	}
	a, err := arch.Load(p.Arch)
	if err != nil {
		return nil, &JobError{Code: CodeBadRequest, Msg: "unknown arch: " + err.Error()}
	}
	mode := spec.Mode
	if mode == "" {
		mode = "explore"
	}
	if mode != "explore" && mode != "concolic" {
		return nil, &JobError{Code: CodeBadRequest, Msg: fmt.Sprintf("unknown mode %q (want explore or concolic)", spec.Mode)}
	}
	strategy, err := parseStrategy(spec.Strategy)
	if err != nil {
		return nil, &JobError{Code: CodeBadRequest, Msg: err.Error()}
	}

	cfg := s.cfg
	opts := core.Options{
		MaxSteps:       clamp64(spec.MaxSteps, 4096, cfg.MaxStepsCap),
		MaxPaths:       clampInt(spec.MaxPaths, 512, cfg.MaxPathsCap),
		InputBytes:     clampInt(spec.Inputs, 8, cfg.MaxInputBytes),
		Workers:        clampInt(spec.Workers, cfg.DefaultWorkers, cfg.MaxWorkersPerJob),
		Strategy:       strategy,
		QueryCache:     s.cache,
		SolverDeadline: cfg.SolverDeadline,
		MaxStateTerms:  cfg.MaxStateTerms,
		Obs:            cfg.Obs,
		Cover:          cfg.Cover,
		Inject:         cfg.Inject,
	}
	maxRuns := clampInt(spec.MaxRuns, 32, cfg.MaxRunsCap)

	j := newJob(a, p, mode, opts, spec.Seed, maxRuns)
	// The digest covers the image plus every option that changes the
	// workload's cost profile, so ledger baselines only compare
	// like-for-like runs.
	j.digest = ledger.Digest(p.Arch, spec.Image, fmt.Sprintf(
		"mode=%s inputs=%d steps=%d paths=%d workers=%d strategy=%v runs=%d",
		mode, opts.InputBytes, opts.MaxSteps, opts.MaxPaths, opts.Workers, opts.Strategy, maxRuns))
	return j, nil
}

// recordRun appends a completed job's ledger record. Best-effort: a
// read-only ledger (lease lost to another process) or an append error
// is logged, never fatal to the job.
func (s *Server) recordRun(j *Job, o outcome) {
	if s.ledger == nil {
		return
	}
	j.mu.Lock()
	cs := j.coreStats
	j.mu.Unlock()
	stats := o.stats
	if cs == nil || stats == nil {
		return // failed/canceled before the engine produced a report
	}
	in := ledger.BuildInput{
		Source:  "symexd",
		Label:   j.id,
		Digest:  j.digest,
		ISA:     j.p.Arch,
		Mode:    j.mode,
		Workers: j.opts.Workers,
		Bugs:    stats.Bugs,
		Stats:   *cs,
		Now:     time.Now(),
	}
	if s.cfg.Cover != nil {
		// The collector is daemon-cumulative, not per-job; its layer
		// fractions still trend usefully per digest (docs/observability.md).
		in.Cover = s.cfg.Cover.Report()
	}
	if j.prof != nil {
		in.Profile = j.prof.Report()
	}
	if err := s.ledger.Append(ledger.Build(in)); err != nil && err != ledger.ErrReadOnly {
		s.log.Warn("run ledger append failed", "job", j.id, "err", err)
	}
}

// JournalStats exposes the job-journal log counters plus the startup
// recovery tallies; zero value when crash safety is off.
func (s *Server) JournalStats() (stats wal.Stats, recovered, resumed int) {
	if s.journal == nil {
		return wal.Stats{}, 0, 0
	}
	return s.journal.Stats(), s.recoveredN, s.resumedN
}

// Runs returns the full run-ledger history (nil ledger = nil). The
// ?digest filter and trends are applied by the handlers.
func (s *Server) Runs() []ledger.Record {
	if s.ledger == nil {
		return nil
	}
	return s.ledger.Records()
}

// LedgerStats exposes the ledger counters (tests and smokes); zero
// value when the ledger is off.
func (s *Server) LedgerStats() ledger.Stats {
	if s.ledger == nil {
		return ledger.Stats{}
	}
	return s.ledger.Stats()
}

func clampInt(v, def, cap int) int {
	if v <= 0 {
		v = def
	}
	if v > cap {
		v = cap
	}
	return v
}

func clamp64(v, def, cap int64) int64 {
	if v <= 0 {
		v = def
	}
	if v > cap {
		v = cap
	}
	return v
}

func parseStrategy(s string) (core.Strategy, error) {
	switch s {
	case "", "dfs":
		return core.DFS, nil
	case "bfs":
		return core.BFS, nil
	case "random":
		return core.Random, nil
	case "coverage":
		return core.Coverage, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want dfs, bfs, random or coverage)", s)
}

// job looks a job up by ID.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Status returns a job's current status view.
func (s *Server) Status(id string) (*JobStatus, bool) {
	j, ok := s.job(id)
	if !ok {
		return nil, false
	}
	return j.status(), true
}

// List returns every retained job's status, oldest first.
func (s *Server) List() []*JobStatus {
	s.mu.Lock()
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	out := make([]*JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	sortStatuses(out)
	return out
}

func sortStatuses(sts []*JobStatus) {
	for i := 1; i < len(sts); i++ {
		for k := i; k > 0 && sts[k-1].ID > sts[k].ID; k-- {
			sts[k-1], sts[k] = sts[k], sts[k-1]
		}
	}
}

// Cancel requests cancellation: a queued job is marked canceled before
// it runs; a running job's engine stops cooperatively between
// instructions (core.Options.Cancel). Terminal jobs are unaffected.
func (s *Server) Cancel(id string) (*JobStatus, bool) {
	j, ok := s.job(id)
	if !ok {
		return nil, false
	}
	j.requestCancel()
	return j.status(), true
}

// finishJob makes a job's terminal outcome durable — journal record,
// aggregate profile, ledger record — then evicts the oldest terminal
// jobs past the retention cap and publishes the outcome last, so every
// observer that sees a job terminal finds it in the journal and the
// ledger.
func (s *Server) finishJob(j *Job) {
	o := j.outcome()
	s.journalFinished(j, o)
	s.m.completed(o.state)
	s.aggProf.Absorb(j.prof)
	s.recordRun(j, o)
	s.logFinished(j, o)
	s.mu.Lock()
	s.doneIDs = append(s.doneIDs, j.id)
	for len(s.doneIDs) > s.cfg.RetainDone {
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
	}
	s.mu.Unlock()
	j.publish()
}

// logFinished emits the terminal job-lifecycle log line: outcome, error
// code when the job failed, and the headline run stats when it ran.
func (s *Server) logFinished(j *Job, o outcome) {
	attrs := []any{"job", j.id, "status", o.state}
	if o.err != nil {
		attrs = append(attrs, "code", o.err.Code, "err", o.err.Msg)
	}
	if o.stats != nil {
		attrs = append(attrs,
			"paths", o.stats.Paths, "bugs", o.stats.Bugs,
			"instructions", o.stats.Instructions,
			"solver_queries", o.stats.SolverQs, "wall_ms", o.stats.WallMS)
	}
	if o.state == StateFailed {
		s.log.Warn("job finished", attrs...)
		return
	}
	s.log.Info("job finished", attrs...)
}

// Close drains the service: new submissions get 503, queued jobs are
// canceled, running jobs are interrupted, the cache is flushed a final
// time and the writer lease is released.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for _, j := range s.jobs {
		j.requestCancel()
	}
	close(s.queue) // safe: submissions check draining under this lock
	s.mu.Unlock()

	s.wg.Wait()
	close(s.flushQuit)
	<-s.flushDone

	var err error
	if s.persist != nil {
		err = s.persist.Close()
		if err == smt.ErrReadOnly {
			err = nil
		}
	}
	if s.ledger != nil {
		if lerr := s.ledger.Close(); lerr != nil && err == nil {
			err = lerr
		}
	}
	s.refreshMetrics()
	if s.journal != nil {
		if jerr := s.journal.Close(); jerr != nil && err == nil {
			err = jerr
		}
	}
	return err
}

// HTTPServer is a bound listener serving a Server's Handler, in the
// style of obs.Serve.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// Listen starts serving the job API on addr (":0" for ephemeral) and
// returns immediately; the error covers only the bind.
func (s *Server) Listen(addr string) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	h := &HTTPServer{ln: ln, srv: &http.Server{Handler: s.Handler()}}
	go h.srv.Serve(ln)
	return h, nil
}

// Addr returns the bound address.
func (h *HTTPServer) Addr() string { return h.ln.Addr().String() }

// Close shuts the listener down (the Server itself is closed
// separately).
func (h *HTTPServer) Close() error { return h.srv.Close() }

// Checkers returns the default checker set jobs run with; exposed so
// parity tests configure their direct-engine baseline identically.
func Checkers() []core.Checker { return checker.All() }
