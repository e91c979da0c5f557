package core_test

import (
	"errors"
	"testing"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/core"
)

// resumeSrc explores 2^3 = 8 paths over three symbolic input bytes,
// with a division finding on the path where the first byte is zero —
// enough exploration iterations that a mid-run checkpoint lands in
// interesting territory.
const resumeSrc = `
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

func resumeOpts() core.Options {
	return core.Options{InputBytes: 3, Strategy: core.DFS}
}

// assertSameReport compares the canonical, schedule-independent report
// fields: per-path identity (ID, signature, status, end state shape)
// in completion order, the bug list, and the deterministic counters.
// Wall-clock and solver-time fields are excluded.
func assertSameReport(t *testing.T, want, got *core.Report) {
	t.Helper()
	if len(got.Paths) != len(want.Paths) {
		t.Fatalf("paths = %d, want %d", len(got.Paths), len(want.Paths))
	}
	for i := range want.Paths {
		w, g := &want.Paths[i], &got.Paths[i]
		if g.ID != w.ID || g.Sig() != w.Sig() || g.Status != w.Status || g.Fault != w.Fault ||
			g.EndPC != w.EndPC || g.Steps != w.Steps || g.Depth != w.Depth {
			t.Errorf("path %d: got {id=%d sig=%#x %v %q pc=%#x steps=%d depth=%d}, want {id=%d sig=%#x %v %q pc=%#x steps=%d depth=%d}",
				i, g.ID, g.Sig(), g.Status, g.Fault, g.EndPC, g.Steps, g.Depth,
				w.ID, w.Sig(), w.Status, w.Fault, w.EndPC, w.Steps, w.Depth)
		}
		if len(g.PathCond) != len(w.PathCond) || len(g.Output) != len(w.Output) {
			t.Errorf("path %d: cond/out lengths %d/%d, want %d/%d",
				i, len(g.PathCond), len(g.Output), len(w.PathCond), len(w.Output))
			continue
		}
		for j := range w.PathCond {
			if g.PathCond[j].Digest() != w.PathCond[j].Digest() {
				t.Errorf("path %d cond %d: digest mismatch", i, j)
			}
		}
		for j := range w.Output {
			if g.Output[j].Digest() != w.Output[j].Digest() {
				t.Errorf("path %d out %d: digest mismatch", i, j)
			}
		}
	}
	if len(got.Bugs) != len(want.Bugs) {
		t.Fatalf("bugs = %d, want %d", len(got.Bugs), len(want.Bugs))
	}
	for i := range want.Bugs {
		w, g := &want.Bugs[i], &got.Bugs[i]
		if g.Check != w.Check || g.PC != w.PC || g.Msg != w.Msg || g.PathID != w.PathID ||
			g.FoundAt != w.FoundAt || string(g.Input) != string(w.Input) {
			t.Errorf("bug %d: got %+v, want %+v", i, *g, *w)
		}
	}
	ws, gs := want.Stats, got.Stats
	if gs.Instructions != ws.Instructions || gs.Forks != ws.Forks || gs.Infeasible != ws.Infeasible ||
		gs.PathsDone != ws.PathsDone || gs.Coverage != ws.Coverage || gs.MaxDepth != ws.MaxDepth {
		t.Errorf("stats: got insn=%d forks=%d infeasible=%d paths=%d cover=%d depth=%d, want insn=%d forks=%d infeasible=%d paths=%d cover=%d depth=%d",
			gs.Instructions, gs.Forks, gs.Infeasible, gs.PathsDone, gs.Coverage, gs.MaxDepth,
			ws.Instructions, ws.Forks, ws.Infeasible, ws.PathsDone, ws.Coverage, ws.MaxDepth)
	}
}

// TestCheckpointResumeBitIdentical: interrupting a serial exploration
// at an arbitrary checkpoint and resuming it in a fresh engine must
// produce the same report, path for path, as the uninterrupted run —
// for every deterministic strategy (Coverage also reads the restored
// visit counts).
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, strategy := range []core.Strategy{core.DFS, core.BFS, core.Coverage} {
		t.Run(strategy.String(), func(t *testing.T) { testCheckpointResume(t, strategy) })
	}
}

func testCheckpointResume(t *testing.T, strategy core.Strategy) {
	a := arch.MustLoad("tiny32")
	p := build(t, "tiny32", resumeSrc)

	run := func(opts core.Options) *core.Report {
		opts.Strategy = strategy
		e := core.NewEngine(a, p, opts)
		for _, c := range checker.All() {
			e.AddChecker(c)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	want := run(resumeOpts())
	if len(want.Paths) < 8 || len(want.Bugs) == 0 {
		t.Fatalf("baseline not interesting enough: %d paths, %d bugs", len(want.Paths), len(want.Bugs))
	}

	// Re-run with per-iteration checkpoints; the run itself must be
	// unperturbed.
	var snaps []*core.Snapshot
	opts := resumeOpts()
	opts.CheckpointEvery = -1 // dense: every opportunity
	opts.Checkpoint = func(s *core.Snapshot) { snaps = append(snaps, s) }
	assertSameReport(t, want, run(opts))
	if len(snaps) < 3 {
		t.Fatalf("only %d checkpoints taken", len(snaps))
	}

	// Resume from several cut points, through the durable wire form.
	for _, idx := range []int{0, len(snaps) / 3, len(snaps) / 2, len(snaps) - 1} {
		blob, err := snaps[idx].Marshal()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := core.UnmarshalSnapshot(blob)
		if err != nil {
			t.Fatalf("checkpoint %d: %v", idx, err)
		}
		ropts := resumeOpts()
		ropts.Resume = snap
		assertSameReport(t, want, run(ropts))
	}
}

// TestSnapshotCorruptionRejected: every single-byte corruption and
// truncation of a marshaled snapshot must fail in UnmarshalSnapshot —
// a damaged checkpoint can never leak into a resuming run.
func TestSnapshotCorruptionRejected(t *testing.T) {
	a := arch.MustLoad("tiny32")
	p := build(t, "tiny32", resumeSrc)
	var snap *core.Snapshot
	opts := resumeOpts()
	opts.CheckpointEvery = -1 // dense: every opportunity
	opts.Checkpoint = func(s *core.Snapshot) {
		if snap == nil {
			snap = s
		}
	}
	if _, err := core.NewEngine(a, p, opts).Run(); err != nil {
		t.Fatal(err)
	}
	blob, err := snap.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.UnmarshalSnapshot(blob); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		if _, err := core.UnmarshalSnapshot(mut); err == nil {
			t.Fatalf("byte %d corrupted: snapshot accepted", i)
		}
	}
	for _, n := range []int{0, 3, len(blob) / 2, len(blob) - 1} {
		if _, err := core.UnmarshalSnapshot(blob[:n]); err == nil {
			t.Fatalf("truncated to %d bytes: snapshot accepted", n)
		}
	}
}

// TestResumeValidation: a snapshot only resumes on an engine built for
// the same program, and never on a parallel run.
func TestResumeValidation(t *testing.T) {
	a := arch.MustLoad("tiny32")
	p := build(t, "tiny32", resumeSrc)
	var snap *core.Snapshot
	opts := resumeOpts()
	opts.CheckpointEvery = -1 // dense: every opportunity
	opts.Checkpoint = func(s *core.Snapshot) {
		if snap == nil {
			snap = s
		}
	}
	if _, err := core.NewEngine(a, p, opts).Run(); err != nil {
		t.Fatal(err)
	}

	other := build(t, "tiny32", "_start:\n\tli r1, 1\n\thalt\n")
	ropts := resumeOpts()
	ropts.Resume = snap
	if _, err := core.NewEngine(a, other, ropts).Run(); !errors.Is(err, core.ErrSnapshotMismatch) {
		t.Errorf("resume against different program: err = %v, want ErrSnapshotMismatch", err)
	}

	popts := resumeOpts()
	popts.Resume = snap
	popts.Workers = 4
	if _, err := core.NewEngine(a, p, popts).Run(); err == nil {
		t.Error("parallel resume accepted")
	}
}
