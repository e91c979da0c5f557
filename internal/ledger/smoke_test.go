// Ledger CLI smoke (wired into `make ledger-smoke`): build the real
// symex binary, run the same image against the same ledger three
// times, and prove the regression gate end to end — a clean repeat run
// gates green (exit 0), and a -ledger-fake-slowdown run gates red with
// exit 5 naming the regressed metric on stderr. This is the external
// test package so it can borrow the harness program generators; the
// in-package tests cover the store and the gate math.
package ledger_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/cmdtest"
	"repro/internal/harness"
	"repro/internal/ledger"
)

func TestLedgerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the symex binary")
	}
	dir := t.TempDir()
	bin := cmdtest.Build(t, dir, "symex")["symex"]

	a, err := arch.Load("tiny32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.New(a).Assemble("smoke.s", harness.BranchLadder("tiny32", 6))
	if err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(dir, "smoke.rimg")
	if err := os.WriteFile(img, p.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	ldir := filepath.Join(dir, "ledger")

	run := func(args ...string) (int, string) {
		cmd := exec.Command(bin, append(args, img)...)
		var sb strings.Builder
		cmd.Stderr = &sb
		err := cmd.Run()
		code := 0
		if ee, ok := err.(*exec.ExitError); ok {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatalf("running symex %v: %v", args, err)
		}
		return code, sb.String()
	}

	// Run 1 seeds the baseline; no gate yet.
	if code, errOut := run("-ledger", ldir); code != 0 {
		t.Fatalf("seeding run exited %d:\n%s", code, errOut)
	}

	// Run 2: same config, gated — must be green.
	code, errOut := run("-ledger", ldir, "-ledger-gate")
	if code != 0 {
		t.Fatalf("clean repeat run gated red (exit %d):\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "ledger-gate: green") {
		t.Errorf("no green verdict on stderr:\n%s", errOut)
	}

	// Run 3: injected slowdown — must exit 5 and name the metric.
	code, errOut = run("-ledger", ldir, "-ledger-gate", "-ledger-fake-slowdown", "250ms")
	if code != 5 {
		t.Fatalf("slowed run exited %d, want 5:\n%s", code, errOut)
	}
	if !strings.Contains(errOut, "wall_time regressed") && !strings.Contains(errOut, "solver_time regressed") {
		t.Errorf("red verdict does not name the regressed metric:\n%s", errOut)
	}

	// The ledger on disk holds all three runs under one digest, readable
	// by a follower while nothing else holds the lease.
	led, err := ledger.Open(ldir)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	recs := led.Records()
	if len(recs) != 3 {
		t.Fatalf("ledger holds %d records, want 3", len(recs))
	}
	for i, r := range recs[1:] {
		if r.Digest != recs[0].Digest {
			t.Errorf("record %d digest %s differs from %s", i+1, r.Digest, recs[0].Digest)
		}
	}
	if recs[0].Source != "symex" || recs[0].ISA != "tiny32" || recs[0].Instructions <= 0 {
		t.Errorf("seed record looks wrong: %+v", recs[0])
	}
}
