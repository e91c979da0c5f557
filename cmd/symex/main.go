// Command symex symbolically executes a program image with the
// retargetable engine, runs the security checkers, and reports every
// finding with a concrete reproducing input.
//
// Usage:
//
//	symex [-inputs N] [-steps N] [-paths N] [-strategy s] [-workers N] [-paths-detail]
//	      [-solver-deadline 2s] [-state-budget N]
//	      [-cover] [-cover-out cover.json] [-obs-addr :8089] [-trace-out trace.json]
//	      [-profile] [-profile-out prof.pb.gz] [-profile-json prof.json]
//	      [-ledger DIR] [-ledger-gate] [-ledger-fake-slowdown D]
//	      <image.rimg>
//
// Execution runs through the semantics compiler and superblock cache
// (docs/compile.md); the compile/superblock summary goes to stderr with
// the other diagnostics.
//
// The per-path summary goes to stdout; worker and cache statistics go to
// stderr so stdout stays pipeable. -obs-addr serves live Prometheus
// metrics, /coverage, expvar and pprof for the duration of the run;
// -trace-out writes the exploration timeline as Chrome trace_event
// JSON, loadable by Perfetto (see docs/observability.md). -cover and
// -cover-out measure semantic coverage of the loaded ADL
// (docs/coverage.md) fully offline: the JSON report goes to the named
// file and the human-readable matrix to stderr.
//
// -profile attributes exploration cost (solver time, queries, forks,
// step time, kills) to guest program counters and prints the ranked
// hotspot report — including diamond fork/rejoin merge candidates — to
// stderr. -profile-out writes the same attribution as a gzipped pprof
// protobuf whose locations are guest PCs, so
// `go tool pprof -top prof.pb.gz` renders a guest-code profile;
// -profile-json writes the machine-readable report. Any of the three
// arms the profiler (see docs/observability.md).
//
// -ledger appends one run record (cost, shape, coverage, hotspots) to
// the append-only run ledger in DIR; -ledger-gate then diffs the run
// against the rolling median of prior runs of the same configuration
// and exits 5 naming the regressed metric on stderr when wall time,
// solver time, or coverage moved the wrong way (docs/observability.md).
// -ledger-fake-slowdown inflates the recorded times before gating — a
// testing aid that makes the red path demonstrable on demand.
//
// -solver-deadline and -state-budget arm the resource governor
// (docs/robustness.md): a query past the wall-clock deadline or a state
// past the term budget degrades gracefully — over-approximated or
// killed, never a run failure — and the per-cause degradation counts
// plus any recovered path faults are summarized on stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/expr"
	"repro/internal/ledger"
	"repro/internal/obs"
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
	obsAddr := flag.String("obs-addr", "", "serve live /metrics, /coverage, expvar and pprof on this address")
	traceOut := flag.String("trace-out", "", "write the exploration trace as Chrome trace_event JSON to this file")
	coverOn := flag.Bool("cover", false, "collect semantic coverage; the matrix goes to stderr")
	coverOut := flag.String("cover-out", "", "write the coverage report as JSON to this file (implies -cover)")
	profileOn := flag.Bool("profile", false, "attribute exploration cost to guest PCs; the hotspot report goes to stderr")
	profileOut := flag.String("profile-out", "", "write the exploration profile as gzipped pprof protobuf to this file (implies -profile)")
	profileJSON := flag.String("profile-json", "", "write the exploration profile report as JSON to this file (implies -profile)")
	ledgerDir := flag.String("ledger", "", "append this run's record to the run ledger in this directory (docs/observability.md)")
	ledgerGate := flag.Bool("ledger-gate", false, "gate this run against its rolling same-config baseline; a regression names the metric on stderr and exits 5")
	ledgerSlow := flag.Duration("ledger-fake-slowdown", 0, "testing aid: inflate the recorded wall and solver times by this duration before gating")
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

	// Coverage collection is on when a -cover* flag asks for it, and
	// also whenever the live endpoint is up, so -obs-addr users get
	// /coverage with no extra flags.
	var coll *cover.Collector
	if *coverOn || *coverOut != "" || *obsAddr != "" {
		coll = cover.New()
	}
	var o *obs.Obs
	if *obsAddr != "" || *traceOut != "" {
		if *traceOut != "" {
			o = obs.NewTracing()
		} else {
			o = obs.New()
		}
		if coll != nil {
			o.Cover = coll
		}
		obs.RegisterBuildInfo(o.Reg, len(arch.Names()))
	}
	if *obsAddr != "" {
		srv, err := obs.Serve(*obsAddr, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "obs: serving /metrics, /debug/vars, /debug/pprof on %s\n", srv.Addr())
	}
	dumpTrace := func() {
		if *traceOut == "" {
			return
		}
		if err := o.Trace.WriteChromeFile(*traceOut); err != nil {
			fmt.Fprintf(os.Stderr, "trace-out: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "trace-out: %d events -> %s (open with ui.perfetto.dev)\n",
			o.Trace.Len(), *traceOut)
	}
	var prof *profile.Profiler
	if *profileOn || *profileOut != "" || *profileJSON != "" {
		prof = profile.New(profile.Meta{ADL: p.Arch})
	}
	// Profile output follows the coverage discipline: every surface is
	// a diagnostic (stderr or a named file), stdout stays pipeable.
	dumpProfile := func() {
		if prof == nil {
			return
		}
		if *profileOut != "" {
			f, err := os.Create(*profileOut)
			if err == nil {
				err = prof.WritePprof(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "profile-out: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "profile-out: wrote pprof profile to %s (go tool pprof -top %s)\n",
				*profileOut, *profileOut)
		}
		if *profileJSON != "" {
			data, err := prof.JSON()
			if err == nil {
				err = os.WriteFile(*profileJSON, data, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "profile-json: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "profile-json: wrote profile report to %s\n", *profileJSON)
		}
		if *profileOn {
			prof.WriteText(os.Stderr)
		}
	}
	// Coverage output is fully offline: JSON to -cover-out, the
	// human-readable matrix to stderr, stdout untouched.
	dumpCover := func() {
		if coll == nil {
			return
		}
		if *coverOut != "" {
			data, err := coll.JSON()
			if err == nil {
				err = os.WriteFile(*coverOut, data, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "cover-out: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "cover-out: wrote coverage report to %s\n", *coverOut)
		}
		if *coverOn || *coverOut != "" {
			coll.WriteText(os.Stderr)
		}
	}

	// recordLedger appends this run to the run ledger and, with
	// -ledger-gate, diffs it against the rolling median of prior runs of
	// the same configuration. A regression names the offending metric on
	// stderr and exits 5 (distinct from the bug exit 3), so CI can tell
	// "got slower" from "found bugs".
	recordLedger := func(st core.Stats, mode string, bugs int) {
		if *ledgerDir == "" {
			return
		}
		led, err := ledger.Open(*ledgerDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
			os.Exit(1)
		}
		defer led.Close()
		summary := fmt.Sprintf("mode=%s inputs=%d steps=%d paths=%d workers=%d strategy=%s",
			mode, *inputs, *steps, *paths, *workers, *strategy)
		in := ledger.BuildInput{
			Source:  "symex",
			Label:   flag.Arg(0),
			Digest:  ledger.Digest(p.Arch, raw, summary),
			ISA:     p.Arch,
			Mode:    mode,
			Workers: *workers,
			Bugs:    bugs,
			Stats:   st,
			Now:     time.Now(),
		}
		if coll != nil {
			in.Cover = coll.Report()
		}
		if prof != nil {
			in.Profile = prof.Report()
		}
		rec := ledger.Build(in)
		if *ledgerSlow > 0 {
			rec.WallNS += int64(*ledgerSlow)
			rec.SolverNS += int64(*ledgerSlow)
		}
		history := led.Records()
		if err := led.Append(rec); err != nil {
			fmt.Fprintf(os.Stderr, "ledger: %v\n", err)
			os.Exit(1)
		}
		prior := 0
		for _, r := range history {
			if r.Digest == rec.Digest {
				prior++
			}
		}
		fmt.Fprintf(os.Stderr, "ledger: appended run %s (%d prior runs of this config) to %s\n",
			rec.Digest, prior, led.Path())
		if *ledgerGate {
			if regs := ledger.Gate(history, rec, ledger.GateOptions{}); len(regs) > 0 {
				for _, r := range regs {
					fmt.Fprintf(os.Stderr, "ledger-gate: %s\n", r)
				}
				os.Exit(5)
			}
			fmt.Fprintf(os.Stderr, "ledger-gate: green (wall %v, solver %v vs %d-run baseline)\n",
				rec.Wall().Round(time.Microsecond), rec.Solver().Round(time.Microsecond), prior)
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
		Obs:            o,
		Cover:          coll,
		Profile:        prof,
	})
	for _, c := range checker.All() {
		e.AddChecker(c)
	}

	if *concolic > 0 {
		t0 := time.Now()
		rep, err := e.Concolic([]byte(*seed), *concolic)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		dumpTrace()
		dumpCover()
		dumpProfile()
		cs := rep.Stats
		cs.Coverage = rep.Coverage
		cs.WallTime = time.Since(t0) // the concolic loop doesn't time itself
		recordLedger(cs, "concolic", len(rep.Bugs))
		if len(rep.Faults) > 0 {
			fmt.Fprintf(os.Stderr, "faults: %d runs ended by recovered panics:\n", len(rep.Faults))
			for _, f := range rep.Faults {
				fmt.Fprintf(os.Stderr, "  %v\n", f)
			}
		}
		fmt.Printf("%s: %d concrete runs, %d solver-derived inputs, %d instructions covered\n",
			p.Arch, len(rep.Paths), rep.Solved, rep.Coverage)
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
	dumpTrace()
	dumpCover()
	dumpProfile()
	recordLedger(r.Stats, "explore", len(r.Bugs))

	fmt.Printf("%s: %d paths, %d instructions, %d forks (%d infeasible), %v\n",
		p.Arch, len(r.Paths), r.Stats.Instructions, r.Stats.Forks,
		r.Stats.Infeasible, r.Stats.WallTime.Round(1000))
	fmt.Printf("solver: %d queries (%d sat / %d unsat), %v solving\n",
		r.Stats.Solver.Queries, r.Stats.Solver.SatResults,
		r.Stats.Solver.UnsatCount, r.Stats.Solver.SolveTime.Round(1000))
	// Cache and worker statistics are diagnostics, not results: they go
	// to stderr so stdout stays pipeable.
	if h, m := r.Stats.Solver.CacheHits, r.Stats.Solver.CacheMisses; h+m > 0 {
		fmt.Fprintf(os.Stderr, "query cache: %d hits / %d misses (%.1f%% hit rate)\n",
			h, m, 100*float64(h)/float64(h+m))
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
		fmt.Fprintf(os.Stderr, "worker %d: %d instructions, %d paths, %d steals, %.0f%% busy\n",
			ws.ID, ws.Steps, ws.Paths, ws.Steals, util)
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
