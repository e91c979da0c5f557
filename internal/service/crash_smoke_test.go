// Crash smoke (wired into `make crash-smoke`): build the real symexd
// binary, SIGKILL a live daemon mid-job, restart it against the same
// -state-dir, and prove the acceptance bar end to end — the interrupted
// job resumes from its checkpoint and produces a canonical report
// bit-identical to an uninterrupted daemon's, the job queued behind it
// is not lost, and /v1/runs records the recovered job. In-process
// recovery mechanics are covered by crashsafe_test.go; this test is the
// only one that exercises a real kill -9 across process generations.
package service_test

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/cmdtest"
	"repro/internal/harness"

	. "repro/internal/service"
)

// symexdProc is one daemon generation.
type symexdProc struct {
	cmd  *exec.Cmd
	addr string
}

var listenRE = regexp.MustCompile(`msg="symexd listening" addr=([0-9.]+:[0-9]+)`)

// startSymexd launches the daemon and scans its stderr for the startup
// line to learn the ephemeral address.
func startSymexd(t *testing.T, bin string, args ...string) *symexdProc {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRE.FindStringSubmatch(sc.Text()); m != nil {
				addrCh <- m[1]
				break
			}
		}
		// Drain so the daemon never blocks on a full stderr pipe.
		io.Copy(io.Discard, stderr)
	}()
	select {
	case addr := <-addrCh:
		return &symexdProc{cmd: cmd, addr: addr}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("symexd did not print its listen address")
		return nil
	}
}

func (p *symexdProc) kill() {
	p.cmd.Process.Kill() // SIGKILL: no drain, no journal close
	p.cmd.Wait()
}

func (p *symexdProc) shutdown(t *testing.T) {
	t.Helper()
	p.cmd.Process.Signal(os.Interrupt)
	done := make(chan error, 1)
	go func() { done <- p.cmd.Wait() }()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		<-done
		t.Fatal("symexd did not drain on SIGINT")
	}
}

func TestCrashSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the symexd binary")
	}
	dir := t.TempDir()
	bin := cmdtest.Build(t, dir, "symexd")["symexd"]

	// A workload with a usable kill window: 2^16 feasible branches
	// clipped at 4096 completed paths (~0.5s serial), checkpointing
	// every millisecond.
	image := buildImage(t, "tiny32", harness.BranchLadder("tiny32", 16))
	spec := JobSpec{Image: image, Inputs: 16, MaxPaths: 4096, Strategy: "dfs"}
	daemonArgs := func(state, ledger string) []string {
		return []string{
			"-max-concurrent", "1",
			"-state-dir", state,
			"-ledger", ledger,
			"-checkpoint-interval", "1ms",
		}
	}

	// Generation 0: uninterrupted baseline, then a clean drain.
	baseState, baseLedger := filepath.Join(dir, "base-state"), filepath.Join(dir, "base-ledger")
	p0 := startSymexd(t, bin, daemonArgs(baseState, baseLedger)...)
	c0 := NewClient(p0.addr)
	st, err := c0.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c0.Wait(st.ID, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	evs, err := c0.Results(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalEvents(t, evs)
	if len(want) < 100 {
		t.Fatalf("baseline produced only %d events", len(want))
	}
	p0.shutdown(t)

	// Generation 1: same workload plus a second job queued behind it
	// (one runner), killed -9 once the first checkpoint is on disk.
	state, ledgerDir := filepath.Join(dir, "state"), filepath.Join(dir, "ledger")
	p1 := startSymexd(t, bin, daemonArgs(state, ledgerDir)...)
	c1 := NewClient(p1.addr)
	st1, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(state, st1.ID+".ckpt")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckpt); err == nil {
			break
		}
		if fin, err := c1.Status(st1.ID); err == nil && fin.Status == StateDone {
			t.Fatal("job finished before a checkpoint was written; no kill window")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	p1.kill()

	// Generation 2: restart against the battered state dir. Both jobs
	// must come back and finish; the interrupted one must have resumed
	// from its checkpoint, not restarted.
	p2 := startSymexd(t, bin, daemonArgs(state, ledgerDir)...)
	defer p2.kill()
	c2 := NewClient(p2.addr)
	for _, id := range []string{st1.ID, st2.ID} {
		fin, err := c2.Wait(id, 120*time.Second)
		if err != nil {
			t.Fatalf("recovered job %s: %v", id, err)
		}
		if fin.Status != StateDone {
			t.Fatalf("recovered job %s: status %s (err %+v)", id, fin.Status, fin.Error)
		}
		if !fin.Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
		got, err := c2.Results(id, false)
		if err != nil {
			t.Fatal(err)
		}
		assertSameEvents(t, want, canonicalEvents(t, got))
	}
	fin1, err := c2.Status(st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !fin1.Resumed {
		t.Error("interrupted job did not resume from its checkpoint")
	}

	// The run ledger shows the recovery: one record per completed job,
	// including the resumed one, all under the same config digest.
	runs, err := c2.Runs("")
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]int{}
	for _, r := range runs.Runs {
		byLabel[r.Label]++
	}
	for _, id := range []string{st1.ID, st2.ID} {
		if byLabel[id] == 0 {
			t.Errorf("/v1/runs has no record for recovered job %s (got %v)", id, byLabel)
		}
	}
	p2.shutdown(t)
}
