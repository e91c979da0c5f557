// Crash-safe job state (docs/service.md, docs/robustness.md). With
// Config.StateDir set, the server keeps two durable artifacts so a
// killed daemon restarts without losing work:
//
//   - a job journal — an append-only log in the shared internal/wal
//     format (magic "SXJL", JSON payloads) recording every admission,
//     start, retry and terminal transition. On startup the journal is
//     replayed: jobs that were queued or running when the process died
//     are rebuilt from their recorded spec, re-admitted under their
//     original IDs, and the journal is compacted down to the survivors;
//   - per-job exploration checkpoints — core.Snapshot files written
//     atomically (temp + rename) every CheckpointInterval by serial
//     explore jobs. A recovered job whose checkpoint loads cleanly
//     resumes mid-exploration (core.Options.Resume) and produces a
//     report bit-identical to an uninterrupted run; a corrupt or torn
//     checkpoint fails validation (CRC) and the job simply restarts
//     from the entry point.
//
// The same file hosts the stall watchdog and the transient-failure
// retry policy: the watchdog samples each running job's live progress
// counters and kills runs that make no progress for StallTimeout with
// a typed "stalled" fault; failures classified transient (recovered
// panics, watchdog kills) are retried with exponential backoff up to
// RetryMax attempts, deterministic failures (bad image, engine errors,
// cancellation) never are.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/profile"
	"repro/internal/wal"
)

// Journal file layout: shared wal framing (header "SXJL" | u32 version;
// CRC-framed entries) with one JSON journalRecord per entry.
const (
	journalMagic   = "SXJL"
	journalVersion = 1

	// journalFile and the checkpoint suffix live under Config.StateDir.
	journalFile = "journal.sxjl"
	ckptSuffix  = ".ckpt"
)

// Journal record types.
const (
	recSubmitted = "submitted" // job admitted; Spec set, Attempt set on compacted records
	recStarted   = "started"   // job left the queue (Attempt set on retries)
	recRetry     = "retry"     // transient failure; job re-queued
	recFinished  = "finished"  // terminal transition; State/Code set
)

// journalRecord is one JSON journal entry.
type journalRecord struct {
	Type    string   `json:"type"`
	ID      string   `json:"id"`
	Spec    *JobSpec `json:"spec,omitempty"`    // submitted
	State   string   `json:"state,omitempty"`   // finished
	Code    string   `json:"code,omitempty"`    // finished (failed) / retry
	Attempt int      `json:"attempt,omitempty"` // started / retry
}

// openJournal opens (creating if needed) the state directory and the
// job journal, replays it, and returns the jobs that never reached a
// terminal state — rebuilt, checkpoint-resumed where possible, and
// ready to re-enqueue. The journal is then compacted down to the
// survivors so it does not grow across restarts.
func (s *Server) openJournal() ([]*Job, error) {
	if err := os.MkdirAll(s.cfg.StateDir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	log, err := wal.Open(filepath.Join(s.cfg.StateDir, journalFile), wal.Options{
		Magic:   journalMagic,
		Version: journalVersion,
		Inject:  s.cfg.Inject,
	})
	if err != nil {
		return nil, fmt.Errorf("service: job journal: %w", err)
	}
	s.journal = log
	if log.ReadOnly() {
		s.log.Warn("job journal attached read-only: another process holds the writer lease; jobs will not be durable",
			"dir", s.cfg.StateDir)
	}

	// Replay: submitted records carry the spec needed to rebuild, and a
	// finished record closes its job for good, even when a submitted
	// record for the job comes later in the file.
	type pending struct {
		spec     JobSpec
		attempts int
	}
	open := map[string]*pending{}
	closed := map[string]bool{}
	maxSeq := 0
	err = log.Load(func(payload []byte) error {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return err
		}
		var n int
		if _, err := fmt.Sscanf(rec.ID, "j%06d", &n); err == nil && n > maxSeq {
			maxSeq = n
		}
		switch rec.Type {
		case recSubmitted:
			if rec.Spec != nil && !closed[rec.ID] {
				// Attempt is zero on live admissions and carries the
				// pre-crash retry count on compacted records.
				open[rec.ID] = &pending{spec: *rec.Spec, attempts: rec.Attempt}
			}
		case recRetry:
			if p := open[rec.ID]; p != nil {
				p.attempts = rec.Attempt
			}
		case recFinished:
			delete(open, rec.ID)
			closed[rec.ID] = true
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: job journal: %w", err)
	}
	s.seq = maxSeq

	ids := make([]string, 0, len(open))
	for id := range open {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	var jobs []*Job
	for _, id := range ids {
		j, jerr := s.buildJob(open[id].spec)
		if jerr != nil {
			// The spec was valid at admission; a replay rejection means
			// the environment changed (e.g. an arch removed). Close it
			// out rather than wedging the journal.
			s.log.Warn("recovered job no longer buildable", "job", id, "err", jerr)
			continue
		}
		s.adoptJob(j, id, open[id].spec)
		j.recovered = true
		// Retry attempts consumed before the crash stay consumed: a job
		// flapping between retry and crash cannot retry forever.
		j.attempt = open[id].attempts
		s.loadCheckpoint(j)
		jobs = append(jobs, j)
	}

	// Compact: rewrite the journal with only the surviving admissions.
	if !log.ReadOnly() {
		payloads := make([][]byte, 0, len(jobs))
		for _, j := range jobs {
			spec := j.spec
			b, err := json.Marshal(journalRecord{Type: recSubmitted, ID: j.id, Spec: &spec, Attempt: j.attempt})
			if err != nil {
				return nil, fmt.Errorf("service: job journal: %w", err)
			}
			payloads = append(payloads, b)
		}
		if err := log.Rewrite(payloads); err != nil && !errors.Is(err, wal.ErrReadOnly) {
			s.log.Warn("job journal compaction failed", "err", err)
		}
	}
	return jobs, nil
}

// adoptJob gives a built job its identity (forced to the original ID on
// recovery) and its observability hooks; the caller links it into
// s.jobs. Shared by Submit and journal replay so a recovered job is
// wired exactly like a fresh admission.
func (s *Server) adoptJob(j *Job, id string, spec JobSpec) {
	j.id = id
	j.spec = spec
	j.opts.JobID = id
	j.prof = profile.New(profile.Meta{ADL: j.p.Arch, JobID: id})
	j.opts.Profile = j.prof
}

// ckptPath is the checkpoint file of one job.
func (s *Server) ckptPath(id string) string {
	return filepath.Join(s.cfg.StateDir, id+ckptSuffix)
}

// checkpointable: only serial explorations checkpoint/resume — the
// parallel schedule is not resumable and concolic runs are cheap to
// redo deterministically (core/snapshot.go).
func (j *Job) checkpointable() bool {
	return j.mode == "explore" && j.opts.Workers <= 1
}

// loadCheckpoint arms a recovered job with its last exploration
// checkpoint, if one exists and validates. A missing file is the normal
// case (job never ran, or modes that do not checkpoint); a corrupt one
// is deleted and the job restarts from scratch — recovery never fails a
// job.
func (s *Server) loadCheckpoint(j *Job) {
	if !j.checkpointable() {
		return
	}
	path := s.ckptPath(j.id)
	data, err := os.ReadFile(path)
	if err != nil {
		return
	}
	snap, err := core.UnmarshalSnapshot(data)
	if err != nil {
		s.log.Warn("checkpoint rejected; job will restart from scratch", "job", j.id, "err", err)
		s.m.restoreFailed.Inc()
		os.Remove(path)
		return
	}
	j.opts.Resume = snap
	j.resumed = true
	s.m.resumed.Inc()
	s.log.Info("job will resume from checkpoint", "job", j.id,
		"paths_done", len(snap.Paths), "frontier", len(snap.Frontier))
}

// writeCheckpoint persists one exploration snapshot atomically (temp +
// rename): a crash mid-write can only ever leave the previous intact
// checkpoint (plus a stray temp file) behind. The wal fault site covers
// checkpoint I/O too: an injected short write tears the temp file and
// skips the rename, an injected CRC flip corrupts the marshaled bytes
// (caught by UnmarshalSnapshot on recovery), an injected lease fault
// drops the write — all modes the recovery path must absorb.
func (s *Server) writeCheckpoint(j *Job, snap *core.Snapshot) {
	data, err := snap.Marshal()
	if err != nil {
		s.log.Warn("checkpoint marshal failed", "job", j.id, "err", err)
		s.m.checkpointErrors.Inc()
		return
	}
	switch s.cfg.Inject.Fire(faultinject.SiteWAL) {
	case faultinject.KindShortWrite:
		os.WriteFile(s.ckptPath(j.id)+".tmp", data[:len(data)/2], 0o644)
		s.m.checkpointErrors.Inc()
		return
	case faultinject.KindCRCFlip:
		data = append([]byte(nil), data...)
		data[len(data)/2] ^= 0x01
	case faultinject.KindLease:
		s.m.checkpointErrors.Inc()
		return
	}
	path := s.ckptPath(j.id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.log.Warn("checkpoint write failed", "job", j.id, "err", err)
		s.m.checkpointErrors.Inc()
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		s.log.Warn("checkpoint rename failed", "job", j.id, "err", err)
		s.m.checkpointErrors.Inc()
		return
	}
	s.m.checkpoints.Inc()
}

// journalAppend writes one record to the job journal. Best-effort: the
// journal makes jobs durable, not correct — an append failure (lease
// lost, injected fault, disk error) is counted and logged, and the job
// runs on.
func (s *Server) journalAppend(rec journalRecord) {
	if s.journal == nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		s.log.Warn("journal record marshal failed", "err", err)
		s.m.journalErrors.Inc()
		return
	}
	if err := s.journal.Append(b); err != nil {
		s.m.journalErrors.Inc()
		if errors.Is(err, wal.ErrReadOnly) {
			s.log.Debug("journal append skipped (read-only)", "type", rec.Type, "job", rec.ID)
		} else {
			s.log.Warn("journal append failed", "type", rec.Type, "job", rec.ID, "err", err)
		}
		return
	}
	s.m.journalRecords.Inc()
}

// journalFinished closes a job out in the journal and removes its
// checkpoint — terminal jobs are never replayed.
func (s *Server) journalFinished(j *Job, o outcome) {
	if s.journal == nil {
		return
	}
	code := ""
	if o.err != nil {
		code = o.err.Code
	}
	s.journalAppend(journalRecord{Type: recFinished, ID: j.id, State: o.state, Code: code})
	os.Remove(s.ckptPath(j.id))
	os.Remove(s.ckptPath(j.id) + ".tmp")
}

// ---- stall watchdog and retry policy ----

// progressActivity folds a live-progress snapshot into one monotone
// activity figure; the watchdog declares a stall when it stops moving.
func progressActivity(p core.ProgressSnapshot) int64 {
	return p.Instructions + p.Paths + p.Forks + p.SolverQueries + p.Covered
}

// watchdog samples a running job's live-progress counters and kills the
// run (typed stalled, not canceled) once they have not moved for
// StallTimeout. The engine stops cooperatively between instructions;
// the runner then classifies the failure and may retry it.
func (s *Server) watchdog(j *Job, stop <-chan struct{}) {
	timeout := s.cfg.StallTimeout
	interval := timeout / 8
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	last := progressActivity(j.progress.Snapshot())
	lastMove := time.Now()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			cur := progressActivity(j.progress.Snapshot())
			if cur != last {
				last, lastMove = cur, time.Now()
				continue
			}
			if time.Since(lastMove) < timeout {
				continue
			}
			j.stalled.Store(true)
			s.m.stalled.Inc()
			s.log.Warn("watchdog: no progress, killing job", "job", j.id, "stall_timeout", timeout)
			j.kill()
			return
		}
	}
}

// retryableCode classifies failures: transient ones (recovered panics,
// watchdog kills) may succeed on a clean re-run; everything else —
// malformed images, deterministic engine errors, cancellations — fails
// identically every time and is never retried. The classification is
// deterministic by construction: it depends only on the typed code.
func retryableCode(code string) bool {
	return code == CodePanic || code == CodeStalled
}

// failJob routes every job failure through the retry policy: a
// transient failure with attempts left is journaled and flagged for the
// runner to re-run after backoff; anything else is terminal.
func (s *Server) failJob(j *Job, je *JobError, stats *JobStats) {
	if s.cfg.RetryMax > 0 && retryableCode(je.Code) && !j.cancelReq.Load() && !s.drainingNow() {
		j.mu.Lock()
		retry := j.attempt < s.cfg.RetryMax
		if retry {
			j.attempt++
			j.retryPending = true
		}
		attempt := j.attempt
		j.mu.Unlock()
		if retry {
			s.m.retries.Inc()
			s.journalAppend(journalRecord{Type: recRetry, ID: j.id, Code: je.Code, Attempt: attempt})
			s.log.Warn("transient failure, retrying", "job", j.id, "code", je.Code,
				"attempt", attempt, "max", s.cfg.RetryMax, "backoff", s.retryDelay(attempt))
			return
		}
	}
	j.finish(StateFailed, je, stats)
}

// retryDelay is the exponential backoff before the given (1-based)
// attempt: RetryBackoff doubles per prior retry.
func (s *Server) retryDelay(attempt int) time.Duration {
	d := s.cfg.RetryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// takeRetry consumes the retry flag set by failJob.
func (j *Job) takeRetry() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	p := j.retryPending
	j.retryPending = false
	return p
}

// attempts reads the retry counter.
func (j *Job) attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempt
}

func (s *Server) drainingNow() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
