// Command symex symbolically executes a program image with the
// retargetable engine, runs the security checkers, and reports every
// finding with a concrete reproducing input.
//
// Usage:
//
//	symex [-inputs N] [-steps N] [-paths N] [-strategy s] [-workers N] [-paths-detail]
//	      [-dump-smtlib N] [-concolic N [-seed s]] [-no-query-cache]
//	      [-solver-deadline 2s] [-state-budget N]
//	      [-obs-addr :8089] [-trace-out trace.json] [-cover] [-cover-out cover.json]
//	      [-profile] [-profile-out prof.pb.gz] [-profile-json prof.json]
//	      [-ledger DIR] [-ledger-gate] [-ledger-fake-slowdown D]
//	      <image.rimg>
//
// The per-path summary goes to stdout; worker, cache and compile
// statistics go to stderr so stdout stays pipeable. The exit status is
// 3 when the checkers found bugs.
//
// The instrument flags (-obs-addr through -ledger-fake-slowdown) are
// the ones the other commands share; docs/observability.md has their
// table. -ledger-gate exits 5 when the run regressed against the
// rolling median of its prior same-config runs.
//
// -solver-deadline and -state-budget arm the resource governor
// (docs/robustness.md): a query past the wall-clock deadline or a state
// past the term budget degrades gracefully — over-approximated or
// killed, never a run failure — and the per-cause degradation counts
// plus any recovered path faults are summarized on stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/expr"
	"repro/internal/ledger"
	"repro/internal/profile"
	"repro/internal/prog"
)

func main() {
	inputs := flag.Int("inputs", 8, "symbolic input bytes available to the read trap")
	steps := flag.Int64("steps", 10000, "per-path instruction budget")
	paths := flag.Int("paths", 1000, "completed-path budget")
	strategy := flag.String("strategy", "dfs", "search strategy: dfs|bfs|random|coverage")
	detail := flag.Bool("paths-detail", false, "print every completed path")
	dumpSMT := flag.Int("dump-smtlib", 0, "print the first N path conditions as SMT-LIB 2 scripts")
	concolic := flag.Int("concolic", 0, "run generational concolic testing with up to N concrete executions instead of full exploration")
	seed := flag.String("seed", "", "seed input for -concolic")
	workers := flag.Int("workers", 1, "parallel exploration workers (0 = all CPUs)")
	noCache := flag.Bool("no-query-cache", false, "disable the shared solver-query cache")
	solverDeadline := flag.Duration("solver-deadline", 0, "wall-clock budget per solver query; expiry over-approximates (docs/robustness.md)")
	stateBudget := flag.Int("state-budget", 0, "per-state symbolic term budget; oversized states are killed gracefully")
	inst := cli.Register(flag.CommandLine, cli.ObsAddr|cli.TraceOut|cli.Cover|cli.Profile|cli.ProfileJSON|cli.Ledger|cli.LedgerGate)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: symex [flags] <image.rimg>")
		os.Exit(2)
	}

	var strat core.Strategy
	switch *strategy {
	case "dfs":
		strat = core.DFS
	case "bfs":
		strat = core.BFS
	case "random":
		strat = core.Random
	case "coverage":
		strat = core.Coverage
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := prog.Unmarshal(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	a, err := arch.Load(p.Arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *workers == 0 {
		*workers = runtime.NumCPU()
	}

	if err := inst.Arm(p.Arch); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer inst.Close()
	// finish writes the instruments' outputs and the run's ledger
	// record. A -ledger-gate regression exits 5 (distinct from the bug
	// exit 3), so CI can tell "got slower" from "found bugs".
	finish := func(st core.Stats, mode string, bugs int) {
		err := inst.Finish(func(cov *cover.Report, prof *profile.Report) ledger.Record {
			summary := fmt.Sprintf("mode=%s inputs=%d steps=%d paths=%d workers=%d strategy=%s",
				mode, *inputs, *steps, *paths, *workers, *strategy)
			return ledger.Build(ledger.BuildInput{
				Source:  "symex",
				Label:   flag.Arg(0),
				Digest:  ledger.Digest(p.Arch, raw, summary),
				ISA:     p.Arch,
				Mode:    mode,
				Workers: *workers,
				Bugs:    bugs,
				Stats:   st,
				Cover:   cov,
				Profile: prof,
				Now:     time.Now(),
			})
		})
		if errors.Is(err, cli.ErrRegressed) {
			os.Exit(5)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	e := core.NewEngine(a, p, core.Options{
		InputBytes:     *inputs,
		MaxSteps:       *steps,
		MaxPaths:       *paths,
		Strategy:       strat,
		Workers:        *workers,
		NoQueryCache:   *noCache,
		SolverDeadline: *solverDeadline,
		MaxStateTerms:  *stateBudget,
		Obs:            inst.Obs,
		Cover:          inst.Cover,
		Profile:        inst.Profile,
	})
	for _, c := range checker.All() {
		e.AddChecker(c)
	}

	if *concolic > 0 {
		rep, err := e.Concolic([]byte(*seed), *concolic)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		finish(rep.Stats, "concolic", len(rep.Bugs))
		if len(rep.Faults) > 0 {
			fmt.Fprintf(os.Stderr, "faults: %d runs ended by recovered panics:\n", len(rep.Faults))
			for _, f := range rep.Faults {
				fmt.Fprintf(os.Stderr, "  %v\n", f)
			}
		}
		fmt.Printf("%s: %d concrete runs, %d solver-derived inputs, %d instructions covered\n",
			p.Arch, len(rep.Paths), rep.Solved, rep.Stats.Coverage)
		for i, pth := range rep.Paths {
			fmt.Printf("  run %2d: input % x -> %v, output %q\n", i, pth.Input, pth.Status, pth.Output)
		}
		if len(rep.Bugs) > 0 {
			fmt.Printf("%d findings:\n", len(rep.Bugs))
			for _, b := range rep.Bugs {
				fmt.Printf("  %v\n", b)
			}
			os.Exit(3)
		}
		fmt.Println("no findings")
		return
	}

	r, err := e.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	finish(r.Stats, "explore", len(r.Bugs))

	fmt.Printf("%s: %d paths, %d instructions, %d forks (%d infeasible), %v\n",
		p.Arch, len(r.Paths), r.Stats.Instructions, r.Stats.Forks,
		r.Stats.Infeasible, r.Stats.WallTime.Round(1000))
	fmt.Printf("solver: %d queries (%d sat / %d unsat), %v solving\n",
		r.Stats.Solver.Queries, r.Stats.Solver.SatResults,
		r.Stats.Solver.UnsatCount, r.Stats.Solver.SolveTime.Round(1000))
	// Cache and worker statistics are diagnostics, not results: they go
	// to stderr so stdout stays pipeable.
	if h, m := r.Stats.Solver.CacheHits, r.Stats.Solver.CacheMisses; h+m > 0 {
		fmt.Fprintf(os.Stderr, "query cache: %d hits (%d from parent models) / %d misses (%.1f%% hit rate)\n",
			h, r.Stats.Solver.ModelHits, m, 100*float64(h)/float64(h+m))
	}
	// Semantics-compiler statistics (docs/compile.md): how much of the
	// run executed through compiled units and superblocks.
	if r.Stats.CompiledUnits > 0 {
		share := 0.0
		if r.Stats.Instructions > 0 {
			share = 100 * float64(r.Stats.SuperblockInsns) / float64(r.Stats.Instructions)
		}
		fmt.Fprintf(os.Stderr, "compile: %d units, %d superblocks, %d hits, %d insns in superblocks (%.0f%% of run)\n",
			r.Stats.CompiledUnits, r.Stats.Superblocks, r.Stats.SuperblockHits, r.Stats.SuperblockInsns, share)
	}
	for _, ws := range r.Stats.WorkerStats {
		util := 0.0
		if r.Stats.WallTime > 0 {
			util = 100 * float64(ws.Busy) / float64(r.Stats.WallTime)
		}
		fmt.Fprintf(os.Stderr, "worker %d: %d instructions, %d paths, %.0f%% busy\n",
			ws.ID, ws.Steps, ws.Paths, util)
	}
	// Governor and fault-isolation diagnostics (docs/robustness.md):
	// only printed when something actually degraded or panicked.
	if r.Stats.Degraded.Total() > 0 {
		fmt.Fprintf(os.Stderr, "governor: %d degradations:", r.Stats.Degraded.Total())
		for c := core.DegradeCause(0); c < core.NumDegradeCauses; c++ {
			if n := r.Stats.Degraded[c]; n > 0 {
				fmt.Fprintf(os.Stderr, " %s=%d", c, n)
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	if len(r.Faults) > 0 {
		fmt.Fprintf(os.Stderr, "faults: %d paths ended by recovered panics:\n", len(r.Faults))
		for _, f := range r.Faults {
			fmt.Fprintf(os.Stderr, "  %v\n", f)
		}
	}

	byStatus := map[core.Status]int{}
	for _, pth := range r.Paths {
		byStatus[pth.Status]++
	}
	fmt.Printf("path statuses: %v\n", byStatus)

	if *detail {
		for _, pth := range r.Paths {
			fmt.Printf("  path %d: %v steps=%d depth=%d |cond|=%d out=%d\n",
				pth.ID, pth.Status, pth.Steps, pth.Depth, len(pth.PathCond), len(pth.Output))
		}
	}

	for i, pth := range r.Paths {
		if i >= *dumpSMT {
			break
		}
		fmt.Printf("; path %d (%v) condition:\n%s", pth.ID, pth.Status,
			expr.SMTLIB2String(pth.PathCond))
	}

	if len(r.Bugs) == 0 {
		fmt.Println("no findings")
		return
	}
	fmt.Printf("%d findings:\n", len(r.Bugs))
	for _, b := range r.Bugs {
		fmt.Printf("  %v\n", b)
	}
	os.Exit(3) // distinct exit code when bugs were found
}
