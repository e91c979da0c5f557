// symexd is the sharded analysis daemon: it serves the HTTP/JSON job
// API of internal/service (submit program images, poll status, stream
// JSONL results), schedules concurrent jobs under the resource
// governor, and shares one solver-query cache across every job —
// optionally backed by a persistent cross-run cache file. With -ledger
// it records every completed job in the append-only run ledger (served
// at GET /v1/runs, with per-config trends at GET /v1/runs/{digest}),
// and every running job streams live progress snapshots over SSE at
// GET /v1/jobs/{id}/events, paced by -snapshot-interval. The obs
// introspection surface (/metrics, /coverage, pprof) is part of the
// same listener. See docs/service.md.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/arch"
	"repro/internal/cover"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8090", "listen address (host:port)")
		cacheFile     = flag.String("cache-file", "", "persistent solver-cache file (empty = in-memory only)")
		cacheMax      = flag.Int("cache-max-entries", 0, "LRU bound for the persistent cache (0 = unbounded)")
		flushInterval = flag.Duration("flush-interval", 2*time.Second, "persistent-cache flush period")
		maxConc       = flag.Int("max-concurrent", 2, "jobs running at once")
		queueDepth    = flag.Int("queue-depth", 64, "queued jobs before submissions get 429")
		maxWorkers    = flag.Int("max-workers-per-job", 4, "cap on per-job exploration workers")
		maxSteps      = flag.Int64("max-steps-cap", 200000, "cap on per-job instruction budgets")
		maxPaths      = flag.Int("max-paths-cap", 4096, "cap on per-job path budgets")
		solverDL      = flag.Duration("solver-deadline", 2*time.Second, "per-query solver wall clock (resource governor)")
		maxTerms      = flag.Int("max-state-terms", 0, "per-state symbolic-footprint budget (0 = off)")
		coverage      = flag.Bool("coverage", false, "collect semantic coverage (served at /coverage)")
		ledgerDir     = flag.String("ledger", "", "run-ledger directory: record every completed job, serve GET /v1/runs")
		stateDir      = flag.String("state-dir", "", "crash-safety directory: durable job journal + exploration checkpoints (empty = off)")
		ckptInterval  = flag.Duration("checkpoint-interval", 500*time.Millisecond, "exploration checkpoint pace for serial jobs (needs -state-dir)")
		stallTimeout  = flag.Duration("stall-timeout", 0, "kill jobs making no progress for this long (0 = watchdog off)")
		retryMax      = flag.Int("retry-max", 0, "retries for transient job failures (panics, stalls); 0 = off")
		retryBackoff  = flag.Duration("retry-backoff", 50*time.Millisecond, "first-retry backoff, doubling per attempt")
		snapInterval  = flag.Duration("snapshot-interval", 250*time.Millisecond, "pacing of the per-job SSE progress stream at GET /v1/jobs/{id}/events")
		logFormat     = flag.String("log-format", "text", "structured log format: text or json")
		logLevel      = flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "symexd: %v\n", err)
		os.Exit(1)
	}

	cfg := service.Config{
		MaxConcurrent:      *maxConc,
		QueueDepth:         *queueDepth,
		MaxWorkersPerJob:   *maxWorkers,
		MaxStepsCap:        *maxSteps,
		MaxPathsCap:        *maxPaths,
		SolverDeadline:     *solverDL,
		MaxStateTerms:      *maxTerms,
		CacheFile:          *cacheFile,
		CacheMaxEntries:    *cacheMax,
		FlushInterval:      *flushInterval,
		LedgerDir:          *ledgerDir,
		StateDir:           *stateDir,
		CheckpointInterval: *ckptInterval,
		StallTimeout:       *stallTimeout,
		RetryMax:           *retryMax,
		RetryBackoff:       *retryBackoff,
		SnapshotInterval:   *snapInterval,
		Obs:                obs.New(),
		Logger:             logger,
	}
	obs.RegisterBuildInfo(cfg.Obs.Reg, len(arch.Names()))
	if *coverage {
		cfg.Cover = cover.New()
	}

	srv, err := service.New(cfg)
	if err != nil {
		logger.Error("startup failed", "err", err)
		os.Exit(1)
	}
	httpSrv, err := srv.Listen(*addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	attrs := []any{"addr", httpSrv.Addr()}
	if *ledgerDir != "" {
		ls := srv.LedgerStats()
		attrs = append(attrs, "ledger_dir", *ledgerDir, "ledger_loaded", ls.Loaded,
			"ledger_corrupt", ls.Corruptions, "ledger_mode", leaseMode(ls.ReadOnly))
	}
	if *cacheFile != "" {
		ps := srv.PersistStats()
		attrs = append(attrs, "cache_file", *cacheFile, "cache_loaded", ps.Loaded,
			"cache_corrupt", ps.Corruptions, "cache_mode", leaseMode(ps.ReadOnly))
	}
	if *stateDir != "" {
		js, recovered, resumed := srv.JournalStats()
		attrs = append(attrs, "journal_dir", *stateDir, "journal_recovered", recovered,
			"journal_resumed", resumed, "journal_corrupt", js.Corruptions, "journal_mode", leaseMode(js.ReadOnly))
	}
	logger.Info("symexd listening", attrs...)

	// Graceful shutdown: stop admitting, cancel jobs, flush the cache
	// and release the writer lease before exiting.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	logger.Info("draining")
	httpSrv.Close()
	if err := srv.Close(); err != nil {
		logger.Error("shutdown failed", "err", err)
		os.Exit(1)
	}
}

// buildLogger assembles the daemon's slog logger on stderr, so the log
// stream stays separate from anything scripts scrape off stdout.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
}

// leaseMode names a store's side of its single-writer file lease in the
// startup log: the ledger, the persistent cache and the journal each
// take one.
func leaseMode(readOnly bool) string {
	if readOnly {
		return "read-only follower"
	}
	return "writer"
}
