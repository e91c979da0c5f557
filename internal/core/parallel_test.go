package core_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/harness"
)

// pathKey is the schedule-independent fingerprint of one completed path.
func pathKey(p core.PathResult) string {
	return fmt.Sprintf("%v|%#x|%d|%d|%d", p.Status, p.EndPC, p.Steps, p.Depth, len(p.PathCond))
}

func bugKey(b core.Bug) string { return fmt.Sprintf("%s|%#x|%s", b.Check, b.PC, b.Msg) }

func pathKeys(r *core.Report) []string {
	out := make([]string, len(r.Paths))
	for i, p := range r.Paths {
		out[i] = pathKey(p)
	}
	sort.Strings(out)
	return out
}

func bugKeys(r *core.Report) []string {
	out := make([]string, len(r.Bugs))
	for i, b := range r.Bugs {
		out[i] = bugKey(b)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelDeterminism checks that a 4-worker run reports the same
// paths, bugs and coverage as a serial run on branch-heavy programs
// across two ISAs.
func TestParallelDeterminism(t *testing.T) {
	for _, archName := range []string{"tiny32", "rv32i"} {
		for _, tc := range []struct {
			name string
			src  string
			in   int
		}{
			{"ladder", harness.BranchLadder(archName, 6), 6},
			{"needle", harness.Needle(archName, []byte{7, 3}), 4},
		} {
			t.Run(archName+"/"+tc.name, func(t *testing.T) {
				run := func(workers int) *core.Report {
					p := build(t, archName, tc.src)
					e := core.NewEngine(arch.MustLoad(archName), p,
						core.Options{InputBytes: tc.in, MaxPaths: 5000, Workers: workers})
					for _, c := range checker.All() {
						e.AddChecker(c)
					}
					r, err := e.Run()
					if err != nil {
						t.Fatal(err)
					}
					return r
				}
				serial := run(1)
				par := run(4)
				if len(par.Paths) != len(serial.Paths) {
					t.Fatalf("paths: parallel %d vs serial %d", len(par.Paths), len(serial.Paths))
				}
				if !equalStrings(pathKeys(par), pathKeys(serial)) {
					t.Error("path multiset differs between parallel and serial runs")
				}
				if !equalStrings(bugKeys(par), bugKeys(serial)) {
					t.Errorf("bug set differs: parallel %v vs serial %v", bugKeys(par), bugKeys(serial))
				}
				if par.Stats.Coverage != serial.Stats.Coverage {
					t.Errorf("coverage: parallel %d vs serial %d", par.Stats.Coverage, serial.Stats.Coverage)
				}
				if par.Stats.PathsDone != serial.Stats.PathsDone {
					t.Errorf("paths done: parallel %d vs serial %d", par.Stats.PathsDone, serial.Stats.PathsDone)
				}
			})
		}
	}
}

// TestParallelVulnDetection checks that the planted-vulnerability verdicts
// (checker fires on buggy variants, stays silent on fixed ones) are
// unchanged by parallel exploration.
func TestParallelVulnDetection(t *testing.T) {
	for _, archName := range []string{"tiny32", "rv32i"} {
		for _, v := range harness.VulnSuite(archName) {
			v := v
			t.Run(archName+"/"+v.Name, func(t *testing.T) {
				in := v.Inputs
				if in == 0 {
					in = 8
				}
				p := build(t, archName, v.Src)
				e := core.NewEngine(arch.MustLoad(archName), p,
					core.Options{InputBytes: in, Workers: 4})
				for _, c := range checker.All() {
					e.AddChecker(c)
				}
				r, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				fired := false
				if v.Kind == "" {
					// Assert-reachability cases surface as a fault path.
					for _, pr := range r.Paths {
						if pr.Status == core.StatusFault {
							fired = true
						}
					}
				}
				for _, b := range r.Bugs {
					if b.Check == v.Kind {
						fired = true
					}
				}
				if v.Buggy && !fired {
					t.Errorf("expected %s to fire; bugs: %v", v.Kind, bugKeys(r))
				}
				if !v.Buggy && len(r.Bugs) > 0 {
					t.Errorf("fixed variant reported bugs: %v", bugKeys(r))
				}
			})
		}
	}
}

// TestParallelRepeatable checks that repeated parallel runs produce
// bit-identical ordered reports (canonical merge), not just equal sets.
func TestParallelRepeatable(t *testing.T) {
	src := harness.BranchLadder("tiny32", 7)
	run := func() *core.Report {
		p := build(t, "tiny32", src)
		e := core.NewEngine(arch.MustLoad("tiny32"), p,
			core.Options{InputBytes: 7, MaxPaths: 5000, Workers: 4})
		for _, c := range checker.All() {
			e.AddChecker(c)
		}
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if len(a.Paths) != len(b.Paths) {
		t.Fatalf("path counts differ: %d vs %d", len(a.Paths), len(b.Paths))
	}
	for i := range a.Paths {
		if pathKey(a.Paths[i]) != pathKey(b.Paths[i]) || a.Paths[i].ID != b.Paths[i].ID {
			t.Fatalf("path %d differs in ordered report: %s vs %s", i, pathKey(a.Paths[i]), pathKey(b.Paths[i]))
		}
	}
	if len(a.Bugs) != len(b.Bugs) {
		t.Fatalf("bug counts differ: %d vs %d", len(a.Bugs), len(b.Bugs))
	}
	for i := range a.Bugs {
		if bugKey(a.Bugs[i]) != bugKey(b.Bugs[i]) {
			t.Fatalf("bug %d differs in ordered report", i)
		}
	}
}

// TestParallelForkHeavyRace is the race-detector workout: many workers,
// heavy forking, shared cache, dedup and visit tables all under load.
// Run with -race (the tier-1 target does).
func TestParallelForkHeavyRace(t *testing.T) {
	src := harness.BranchLadder("tiny32", 8)
	p := build(t, "tiny32", src)
	e := core.NewEngine(arch.MustLoad("tiny32"), p,
		core.Options{InputBytes: 8, MaxPaths: 5000, Workers: 8})
	for _, c := range checker.All() {
		e.AddChecker(c)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paths) != 256 {
		t.Errorf("paths = %d, want 256", len(r.Paths))
	}
	if len(r.Stats.WorkerStats) != 8 {
		t.Errorf("worker stats entries = %d, want 8", len(r.Stats.WorkerStats))
	}
}

// TestParallelReportTermsInterned: every worker of a parallel run
// interns into the engine's one builder, so each term of the merged
// report (path conditions, outputs, end registers and memory) is a node
// of e.B, whichever worker built it: parsing the terms' wire form back
// into e.B returns the very same pointers.
func TestParallelReportTermsInterned(t *testing.T) {
	p := build(t, "tiny32", harness.BranchLadder("tiny32", 6))
	e := core.NewEngine(arch.MustLoad("tiny32"), p,
		core.Options{InputBytes: 6, MaxPaths: 5000, Workers: 4, CaptureEndState: true})
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	var roots []*expr.Expr
	for _, pr := range r.Paths {
		roots = append(roots, pr.PathCond...)
		roots = append(roots, pr.Output...)
		roots = append(roots, pr.End.Regs...)
		for _, v := range pr.End.Mem {
			roots = append(roots, v)
		}
	}
	if len(r.Paths) != 64 || len(roots) == 0 {
		t.Fatalf("%d paths with %d terms, want 64 paths", len(r.Paths), len(roots))
	}
	got, err := expr.Parse(e.B, expr.Serialize(roots))
	if err != nil {
		t.Fatal(err)
	}
	for i := range roots {
		if got[i] != roots[i] {
			t.Fatalf("report term %d (%v) is not a node of the engine's builder", i, roots[i])
		}
	}
}

// TestParallelStrategies smoke-tests every strategy under parallelism;
// exploration order is approximate but the explored set must not change.
func TestParallelStrategies(t *testing.T) {
	src := harness.BranchLadder("rv32i", 5)
	for _, s := range []core.Strategy{core.DFS, core.BFS, core.Random, core.Coverage} {
		t.Run(s.String(), func(t *testing.T) {
			p := build(t, "rv32i", src)
			e := core.NewEngine(arch.MustLoad("rv32i"), p,
				core.Options{InputBytes: 5, MaxPaths: 5000, Strategy: s, Seed: 11, Workers: 3})
			r, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Paths) != 32 {
				t.Errorf("paths = %d, want 32", len(r.Paths))
			}
		})
	}
}

// TestParallelStopOnBug checks that the global stop flag actually ends a
// parallel run early.
func TestParallelStopOnBug(t *testing.T) {
	vulns := harness.VulnSuite("tiny32")
	var buggy *harness.Vuln
	for i := range vulns {
		if vulns[i].Buggy {
			buggy = &vulns[i]
			break
		}
	}
	if buggy == nil {
		t.Skip("no buggy variant in suite")
	}
	in := buggy.Inputs
	if in == 0 {
		in = 8
	}
	p := build(t, "tiny32", buggy.Src)
	e := core.NewEngine(arch.MustLoad("tiny32"), p,
		core.Options{InputBytes: in, Workers: 4, StopOnBug: true})
	for _, c := range checker.All() {
		e.AddChecker(c)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Bugs) == 0 {
		t.Error("no bug found with StopOnBug")
	}
}
