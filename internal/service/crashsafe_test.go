// Crash-safety coverage (docs/service.md): journal replay rebuilds
// queued/running jobs after a simulated crash, a valid checkpoint
// resumes the exploration to a bit-identical report, a corrupt
// checkpoint or torn journal tail degrades to a clean restart instead
// of a failure, the stall watchdog kills no-progress jobs with a typed
// fault inside its deadline, and the retry policy re-runs transient
// failures with backoff while leaving deterministic ones alone.
package service_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/arch"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/prog"
	"repro/internal/wal"

	. "repro/internal/service"
)

// crashSrc is the recovery workload: a 4-iteration loop over three
// symbolic input bytes with a division finding on the all-zero branch —
// long enough that a mid-run checkpoint lands with live frontier
// states, deterministic under serial DFS.
const crashSrc = `
_start:
	li   r5, 0
	li   r6, 0
loop:
	trap 1
	li   r2, 65
	divu r3, r2, r1
	bne  r1, r2, skip
	addi r5, r5, 1
	trap 2
skip:
	addi r6, r6, 1
	li   r7, 4
	bne  r6, r7, loop
	trap 0
`

func crashSpec(image []byte) JobSpec {
	return JobSpec{Image: image, Inputs: 3, Strategy: "dfs"}
}

// crashJobOpts mirrors the effective core.Options the server's
// admission clamping produces for crashSpec, so a direct engine
// generates checkpoints a recovered service job can resume.
func crashJobOpts() core.Options {
	return core.Options{
		MaxSteps:       4096,
		MaxPaths:       512,
		InputBytes:     3,
		Workers:        1,
		Strategy:       core.DFS,
		SolverDeadline: 2 * time.Second,
	}
}

// canonicalEvents folds a results stream into comparable lines:
// path/bug/coverage events in emission order plus the deterministic
// subset of the final stats. Wall-clock and cache-dependent fields are
// excluded.
func canonicalEvents(t *testing.T, evs []Event) []string {
	t.Helper()
	var out []string
	for _, ev := range evs {
		switch ev.Type {
		case "path":
			p := ev.Path
			out = append(out, fmt.Sprintf("path id=%d %s pc=%#x steps=%d depth=%d",
				p.ID, p.Status, p.EndPC, p.Steps, p.Depth))
		case "bug":
			b := ev.Bug
			out = append(out, fmt.Sprintf("bug %s@%#x %q path-input=%x", b.Check, b.PC, b.Msg, b.Input))
		case "coverage":
			out = append(out, fmt.Sprintf("coverage %d", ev.Coverage.Covered))
		case "done":
			d := ev.Done
			out = append(out, fmt.Sprintf("done paths=%d bugs=%d insn=%d forks=%d cover=%d",
				d.Paths, d.Bugs, d.Instructions, d.Forks, d.Coverage))
		}
	}
	return out
}

func assertSameEvents(t *testing.T, want, got []string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("event count = %d, want %d\nwant: %v\ngot:  %v", len(got), len(want), want, got)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("event %d:\n  want %s\n  got  %s", i, want[i], got[i])
		}
	}
}

// seedJournal writes a crashed daemon's journal by hand: the given
// submitted records (and any extra raw payloads), then releases the
// writer lease so the recovering server can take it.
func seedJournal(t *testing.T, dir string, recs []map[string]any) {
	t.Helper()
	log, err := wal.Open(filepath.Join(dir, "journal.sxjl"), wal.Options{Magic: "SXJL", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// submittedRec builds a journal "submitted" record as the daemon would
// have written it.
func submittedRec(id string, spec JobSpec) map[string]any {
	return map[string]any{"type": "submitted", "id": id, "spec": spec}
}

// midRunSnapshot runs the workload directly with per-iteration
// checkpoints and returns a cut roughly mid-exploration.
func midRunSnapshot(t *testing.T, image []byte) *core.Snapshot {
	t.Helper()
	p, err := prog.Unmarshal(image)
	if err != nil {
		t.Fatal(err)
	}
	a, err := arch.Load(p.Arch)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*core.Snapshot
	opts := crashJobOpts()
	opts.CheckpointEvery = -1 // dense: every opportunity
	opts.Checkpoint = func(s *core.Snapshot) { snaps = append(snaps, s) }
	e := core.NewEngine(a, p, opts)
	for _, c := range Checkers() {
		e.AddChecker(c)
	}
	rep, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) < 2 {
		t.Fatalf("only %d checkpoints captured", len(snaps))
	}
	// The duty-cycle governor decides the actual pace, so the number
	// and placement of cuts vary with machine speed: pick whichever
	// snapshot landed closest to half the completed paths.
	want := len(rep.Paths) / 2
	best := snaps[0]
	for _, s := range snaps {
		if abs(len(s.Paths)-want) < abs(len(best.Paths)-want) {
			best = s
		}
	}
	return best
}

// TestJournalRecoveryResumesCheckpoint is the tentpole acceptance test:
// a journal with pending jobs plus a mid-run checkpoint must come back
// as running jobs after "restart", the checkpointed job must resume and
// produce a report bit-identical to an uninterrupted run, no queued job
// may be lost, and the status/results/SSE surfaces must answer for the
// recovered IDs instead of 404ing.
func TestJournalRecoveryResumesCheckpoint(t *testing.T) {
	image := buildImage(t, "tiny32", crashSrc)

	// Uninterrupted baseline through a throwaway service.
	srv1, hs1, c1 := startServer(t, Config{Obs: obs.New()})
	st, err := c1.Submit(crashSpec(image))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Wait(st.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	evs, err := c1.Results(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalEvents(t, evs)
	hs1.Close()
	srv1.Close()

	// Simulated crash state: two pending jobs (one with a mid-run
	// checkpoint), one job that already finished and must not return.
	dir := t.TempDir()
	seedJournal(t, dir, []map[string]any{
		submittedRec("j000005", crashSpec(image)),
		submittedRec("j000007", crashSpec(image)),
		{"type": "started", "id": "j000007"},
		submittedRec("j000002", crashSpec(image)),
		{"type": "finished", "id": "j000002", "state": StateDone},
	})
	snap := midRunSnapshot(t, image)
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j000007.ckpt"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, hs2, c2 := startServer(t, Config{Obs: obs.New(), StateDir: dir})
	defer srv2.Close()
	defer hs2.Close()

	// The finished job is gone; both pending jobs are back.
	if _, err := c2.Status("j000002"); err == nil {
		t.Error("finished job j000002 replayed")
	}
	for _, id := range []string{"j000005", "j000007"} {
		fin, err := c2.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatalf("recovered job %s: %v", id, err)
		}
		if fin.Status != StateDone {
			t.Fatalf("recovered job %s: status %s (err %v)", id, fin.Status, fin.Error)
		}
		if !fin.Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
		revs, err := c2.Results(id, false)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEvents(t, want, canonicalEvents(t, revs))

		// Satellite (d): the SSE stream answers for a recovered job with
		// a fresh snapshot and a done event, never a 404.
		sse, err := c2.StreamEvents(id, 5*time.Second, nil)
		if err != nil {
			t.Fatalf("SSE for recovered job %s: %v", id, err)
		}
		if len(sse) == 0 {
			t.Errorf("SSE for recovered job %s returned no events", id)
		}
	}
	fin7, err := c2.Status("j000007")
	if err != nil {
		t.Fatal(err)
	}
	if !fin7.Resumed {
		t.Error("checkpointed job j000007 did not resume from its checkpoint")
	}

	// The ID sequence continues past the recovered jobs.
	st2, err := c2.Submit(crashSpec(image))
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != "j000008" {
		t.Errorf("post-recovery ID = %s, want j000008", st2.ID)
	}
}

// TestJournalTornTailAndCorruptCheckpoint: a torn journal tail is
// skipped (intact prefix recovered) and a corrupt checkpoint restarts
// the job from the entry point — same canonical report either way.
func TestJournalTornTailAndCorruptCheckpoint(t *testing.T) {
	image := buildImage(t, "tiny32", crashSrc)

	dir := t.TempDir()
	seedJournal(t, dir, []map[string]any{
		submittedRec("j000003", crashSpec(image)),
	})
	// Torn tail: half a frame of garbage past the last intact record.
	f, err := os.OpenFile(filepath.Join(dir, "journal.sxjl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x12, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Corrupt checkpoint: valid framing, one flipped byte mid-payload.
	snap := midRunSnapshot(t, image)
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x41
	if err := os.WriteFile(filepath.Join(dir, "j000003.ckpt"), blob, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, hs, c := startServer(t, Config{Obs: obs.New(), StateDir: dir})
	defer srv.Close()
	defer hs.Close()

	fin, err := c.Wait("j000003", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StateDone {
		t.Fatalf("status %s (err %v)", fin.Status, fin.Error)
	}
	if !fin.Recovered || fin.Resumed {
		t.Errorf("recovered=%v resumed=%v, want recovered, not resumed (corrupt checkpoint)", fin.Recovered, fin.Resumed)
	}

	// Same canonical report as a fresh run.
	st, err := c.Submit(crashSpec(image))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(st.ID, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.Results(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := c.Results("j000003", false)
	if err != nil {
		t.Fatal(err)
	}
	assertSameEvents(t, canonicalEvents(t, fresh), canonicalEvents(t, recovered))
}

// stallInjector returns an injector whose SiteStall consult fires on
// given attempts: probe seeds until the firing pattern over the first
// few consults matches, then rebuild fresh with that seed.
func stallInjector(t *testing.T, pattern []bool) *faultinject.Injector {
	t.Helper()
	const period = 3
	build := func(seed int64) *faultinject.Injector {
		return faultinject.New(seed, period).Enable(faultinject.SiteStall, faultinject.KindStall)
	}
probe:
	for seed := int64(1); seed < 1<<20; seed++ {
		in := build(seed)
		for _, fire := range pattern {
			if (in.Fire(faultinject.SiteStall) == faultinject.KindStall) != fire {
				continue probe
			}
		}
		return build(seed)
	}
	t.Fatal("no seed matches stall pattern")
	return nil
}

// TestStallWatchdogKillsTyped: a deliberately stalled job must be
// killed by the watchdog within its deadline and fail with the typed
// stalled code and an injected fault record — without retries it stays
// failed.
func TestStallWatchdogKillsTyped(t *testing.T) {
	image := buildImage(t, "tiny32", crashSrc)
	srv, hs, c := startServer(t, Config{
		Obs:          obs.New(),
		StallTimeout: 100 * time.Millisecond,
		Inject:       stallInjector(t, []bool{true}),
	})
	defer srv.Close()
	defer hs.Close()

	st, err := c.Submit(crashSpec(image))
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	fin, err := c.Wait(st.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StateFailed || fin.Error == nil || fin.Error.Code != CodeStalled {
		t.Fatalf("status %s err %+v, want failed/stalled", fin.Status, fin.Error)
	}
	if fin.Error.Fault == nil || fin.Error.Fault.Site != "stall" || !fin.Error.Fault.Injected {
		t.Errorf("fault record %+v, want injected stall site", fin.Error.Fault)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("watchdog took %v to kill a 100ms-deadline stall", d)
	}
	if fin.Attempts != 0 {
		t.Errorf("attempts = %d, want 0 (retries disabled)", fin.Attempts)
	}
}

// TestRetryTransientThenSucceed: a stall on the first attempt only must
// be retried with backoff and succeed on the second attempt; the status
// records the retry.
func TestRetryTransientThenSucceed(t *testing.T) {
	image := buildImage(t, "tiny32", crashSrc)
	srv, hs, c := startServer(t, Config{
		Obs:          obs.New(),
		StallTimeout: 100 * time.Millisecond,
		RetryMax:     3,
		RetryBackoff: 10 * time.Millisecond,
		Inject:       stallInjector(t, []bool{true, false}),
	})
	defer srv.Close()
	defer hs.Close()

	st, err := c.Submit(crashSpec(image))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(st.ID, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StateDone {
		t.Fatalf("status %s err %+v, want done after retry", fin.Status, fin.Error)
	}
	if fin.Attempts != 1 {
		t.Errorf("attempts = %d, want 1", fin.Attempts)
	}
	// The retry trail stays visible: the failed attempt's stall fault
	// precedes the successful attempt's events.
	evs, err := c.Results(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	sawStall := false
	for _, ev := range evs {
		if ev.Type == "fault" && ev.Fault != nil && ev.Fault.Site == "stall" {
			sawStall = true
		}
	}
	if !sawStall {
		t.Error("no stall fault event in the retried job's stream")
	}
}

// TestRetryExhaustionAndDeterministicNotRetried: a job that stalls on
// every attempt exhausts RetryMax and fails stalled with the attempt
// count; a deterministic decode failure is never retried.
func TestRetryExhaustionAndDeterministicNotRetried(t *testing.T) {
	image := buildImage(t, "tiny32", crashSrc)

	srv, hs, c := startServer(t, Config{
		Obs:          obs.New(),
		StallTimeout: 80 * time.Millisecond,
		RetryMax:     2,
		RetryBackoff: 5 * time.Millisecond,
		Inject:       stallInjector(t, []bool{true, true, true}),
	})
	st, err := c.Submit(crashSpec(image))
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Wait(st.ID, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	hs.Close()
	srv.Close()
	if fin.Status != StateFailed || fin.Error == nil || fin.Error.Code != CodeStalled {
		t.Fatalf("status %s err %+v, want failed/stalled after exhausting retries", fin.Status, fin.Error)
	}
	if fin.Attempts != 2 {
		t.Errorf("attempts = %d, want RetryMax=2", fin.Attempts)
	}

	// Deterministic failure: an injected malformed decode fires on every
	// consult (period 1), and must NOT consume retries.
	decInj := faultinject.New(1, 1).Enable(faultinject.SiteDecode, faultinject.KindDecode)
	srv2, hs2, c2 := startServer(t, Config{
		Obs:          obs.New(),
		RetryMax:     3,
		RetryBackoff: 5 * time.Millisecond,
		Inject:       decInj,
	})
	defer srv2.Close()
	defer hs2.Close()
	st2, err := c2.Submit(crashSpec(image))
	if err != nil {
		t.Fatal(err)
	}
	fin2, err := c2.Wait(st2.ID, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin2.Status != StateFailed || fin2.Error == nil || fin2.Error.Code != CodeDecode {
		t.Fatalf("status %s err %+v, want failed/decode", fin2.Status, fin2.Error)
	}
	if fin2.Attempts != 0 {
		t.Errorf("attempts = %d, want 0 (deterministic failures are not retried)", fin2.Attempts)
	}
}

// TestJournalChaos: with the full chaos configuration armed (including
// the wal I/O faults perturbing journal appends and checkpoint writes)
// and crash safety on, every job still reaches a typed terminal state,
// and a restart against the battered state directory recovers cleanly.
func TestJournalChaos(t *testing.T) {
	dir := t.TempDir()
	inj := faultinject.New(11, 40).EnableAll()
	srv, hs, c := startServer(t, Config{
		Obs:                obs.New(),
		StateDir:           dir,
		CheckpointInterval: time.Millisecond,
		Inject:             inj,
	})
	image := buildImage(t, "tiny32", crashSrc)
	var ids []string
	for i := 0; i < 6; i++ {
		st, err := c.Submit(crashSpec(image))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		fin, err := c.Wait(id, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		switch fin.Status {
		case StateDone:
		case StateFailed:
			if fin.Error == nil {
				t.Errorf("job %s failed without a typed error", id)
			} else if fin.Error.Code != CodePanic && fin.Error.Code != CodeDecode && fin.Error.Code != CodeEngine {
				t.Errorf("job %s failed with unexpected code %s", id, fin.Error.Code)
			}
		default:
			t.Errorf("job %s: unexpected terminal state %s", id, fin.Status)
		}
	}
	hs.Close()
	if err := srv.Close(); err != nil {
		t.Fatalf("close after chaos: %v", err)
	}

	// Restart on the same directory with injection off: the journal must
	// load (corrupt entries skipped, not fatal) and the daemon must come
	// up idle — every chaos job was journaled finished.
	srv2, hs2, c2 := startServer(t, Config{Obs: obs.New(), StateDir: dir})
	defer srv2.Close()
	defer hs2.Close()
	for _, id := range ids {
		// A job whose "finished" journal record was eaten by an injected
		// wal fault legitimately replays (and may already have re-run to
		// done by now); one whose record survived is gone. Either way,
		// every replayed job must reach a clean terminal state.
		if _, err := c2.Status(id); err == nil {
			if _, err := c2.Wait(id, 30*time.Second); err != nil {
				t.Errorf("replayed chaos job %s: %v", id, err)
			}
		}
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// TestJournalFinishBeforeSubmitStaysClosed: replay treats a finished
// record as final even when the job's submitted record comes after it,
// as in a journal written by a daemon that queued jobs before journaling
// their admission; the job must not re-run from its late submission.
func TestJournalFinishBeforeSubmitStaysClosed(t *testing.T) {
	image := buildImage(t, "tiny32", crashSrc)
	dir := t.TempDir()
	seedJournal(t, dir, []map[string]any{
		{"type": "started", "id": "j000004"},
		{"type": "finished", "id": "j000004", "state": StateDone},
		submittedRec("j000004", crashSpec(image)),
		submittedRec("j000006", crashSpec(image)),
	})
	srv, hs, c := startServer(t, Config{Obs: obs.New(), StateDir: dir})
	defer srv.Close()
	defer hs.Close()

	if _, err := c.Status("j000004"); err == nil {
		t.Error("finished job j000004 replayed from its late submitted record")
	}
	fin, err := c.Wait("j000006", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StateDone || !fin.Recovered {
		t.Errorf("pending job j000006: status %s recovered=%v, want done and recovered", fin.Status, fin.Recovered)
	}
	if _, recovered, _ := srv.JournalStats(); recovered != 1 {
		t.Errorf("recovered %d jobs, want 1", recovered)
	}
}

// TestJournalFlippedCRCKeepsLaterJobs: a bit flip in one journal frame
// loses that record only. Of two submitted records whose first frame
// has a flipped checksum, the second job still recovers and runs.
func TestJournalFlippedCRCKeepsLaterJobs(t *testing.T) {
	image := buildImage(t, "tiny32", crashSrc)
	dir := t.TempDir()
	seedJournal(t, dir, []map[string]any{
		submittedRec("j000001", crashSpec(image)),
		submittedRec("j000002", crashSpec(image)),
	})
	// The first frame's CRC field follows the 8-byte file header and
	// its own 4-byte length.
	path := filepath.Join(dir, "journal.sxjl")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 12); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x01
	if _, err := f.WriteAt(b[:], 12); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv, hs, c := startServer(t, Config{Obs: obs.New(), StateDir: dir})
	defer srv.Close()
	defer hs.Close()

	fin, err := c.Wait("j000002", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != StateDone || !fin.Recovered {
		t.Errorf("j000002: status %s recovered=%v, want done and recovered", fin.Status, fin.Recovered)
	}
	if _, err := c.Status("j000001"); err == nil {
		t.Error("j000001 recovered from a record with a bad checksum")
	}
	if st, recovered, _ := srv.JournalStats(); st.Corruptions != 1 || recovered != 1 {
		t.Errorf("journal corruptions %d, recovered %d; want 1 and 1", st.Corruptions, recovered)
	}
}
