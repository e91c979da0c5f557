// Command difftest runs the differential oracle: ADL-driven cross-layer
// fuzzing of the decoder, assembler, RTL evaluators, symbolic engine and
// SMT solver against concrete execution (see docs/difftest.md).
//
// Usage:
//
//	difftest [-duration 30s | -rounds N] [-seed N] [-arch a,b] \
//	         [-workers 1,2] [-steps N] [-corpus dir] [-adl name=file] \
//	         [-layers roundtrip,concsym,explore,solver,probe,compile,service] \
//	         [-cover] [-cover-out cover.json] [-cover-guided=false] \
//	         [-cover-target 0.9] [-cover-min 0.9] \
//	         [-chaos] [-chaos-period N] [-service-addr host:port] \
//	         [-obs-addr :8089] [-trace-out trace.json] \
//	         [-profile] [-profile-out prof.pb.gz] [-ledger DIR] [-v]
//
// The run is a pure function of the seed; every divergence is reported
// with the sub-seed, a minimized program and the triggering input, and
// (with -corpus) a replayable counterexample file. Exit status 1 means
// at least one divergence was found; exit status 4 means the run was
// clean but -cover-min was not reached.
//
// -obs-addr, -cover, -cover-out, -profile, -profile-out and -ledger
// are the instrument flags the other commands share; docs/observability.md
// has their table. -ledger appends one soak record. -cover-target
// turns the soak coverage-budgeted (run until every architecture's
// floor reaches the target instead of a fixed round count), and
// coverage-guided generation (on by default when collecting) biases
// instruction selection toward uncovered cells. -cover-target and
// -cover-min imply -cover. Every human-readable summary goes to
// stderr so stdout stays pipeable.
//
// -chaos arms the deterministic fault injector across every layer
// (docs/robustness.md): panics, solver budget/deadline faults and
// malformed decodes are injected at roughly one per -chaos-period
// calls per site, comparisons perturbed by a fault are skipped, and
// the fault accounting (injected vs surfaced, per site) is printed to
// stderr. A chaos run must stay divergence-free: a divergence under
// chaos is a fault-isolation bug, not a semantic one.
//
// -service-addr points the oracle at a running symexd daemon
// (docs/service.md): generated exploration programs are also submitted
// over the job API and the streamed results must match a direct
// in-process run. Incompatible with -adl overrides, since the daemon
// analyzes with its embedded descriptions.
//
// -trace-out writes the Chrome trace_event timeline of the first
// divergent round (docs/observability.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/arch"
	"repro/internal/cli"
	"repro/internal/cover"
	"repro/internal/difftest"
	"repro/internal/ledger"
	"repro/internal/profile"
)

func main() {
	duration := flag.Duration("duration", 0, "wall-clock budget (overrides -rounds)")
	rounds := flag.Int("rounds", 0, "fixed number of rounds (default 16 when no -duration)")
	seed := flag.Int64("seed", 0, "master seed")
	arches := flag.String("arch", "", "comma-separated architectures (default: all embedded)")
	workers := flag.String("workers", "", "comma-separated engine worker counts (default 1,2)")
	steps := flag.Int64("steps", 0, "per-program instruction budget (default 512)")
	corpus := flag.String("corpus", "", "directory for counterexample files")
	inst := cli.Register(flag.CommandLine, cli.ObsAddr|cli.Cover|cli.Profile|cli.Ledger)
	flag.Lookup("profile").Usage = "attribute explore-layer cost to guest PCs; the hotspot report goes to stderr"
	flag.Lookup("ledger").Usage = "append one soak record (rounds, checks, coverage floors) to the run ledger in this directory"
	// -trace-out is the oracle's own: difftest.Run writes the trace of
	// the first divergent round.
	traceOut := flag.String("trace-out", "", "write the Chrome trace of the first divergent round to this file")
	coverGuided := flag.Bool("cover-guided", true, "bias generation toward uncovered instructions (with -cover)")
	coverTarget := flag.Float64("cover-target", 0, "run until every architecture's coverage floor reaches this fraction (implies -cover)")
	coverMin := flag.Float64("cover-min", 0, "exit 4 when any architecture's final coverage floor is below this fraction (implies -cover)")
	layers := flag.String("layers", "", "comma-separated oracle layers to run (roundtrip,concsym,explore,solver,probe,compile; default all)")
	chaos := flag.Bool("chaos", false, "arm the fault injector at every site (docs/robustness.md)")
	chaosPeriod := flag.Int("chaos-period", 0, "approximate calls between injected faults per site (default 2000, implies -chaos)")
	serviceAddr := flag.String("service-addr", "", "also drive a running symexd daemon at this address and match its results against direct runs (docs/service.md)")
	verbose := flag.Bool("v", false, "log per-round progress")

	// -adl name=file overrides the subject description for one
	// architecture; the reference emulator keeps the embedded text, so a
	// deliberately altered description shows up as counterexamples.
	overrides := map[string]string{}
	flag.Func("adl", "subject ADL override, name=file (repeatable)", func(s string) error {
		name, file, ok := strings.Cut(s, "=")
		if !ok {
			return fmt.Errorf("want name=file, got %q", s)
		}
		overrides[name] = file
		return nil
	})
	flag.Parse()

	// -cover-target and -cover-min need the collector, so they imply
	// -cover.
	if *coverTarget > 0 || *coverMin > 0 {
		inst.CoverOn = true
	}
	if err := inst.Arm("difftest"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer inst.Close()
	opts := difftest.Options{
		Seed:        *seed,
		Rounds:      *rounds,
		Duration:    *duration,
		MaxSteps:    *steps,
		CorpusDir:   *corpus,
		TraceOut:    *traceOut,
		Obs:         inst.Obs,
		Cover:       inst.Cover,
		CoverGuided: *coverGuided,
		CoverTarget: *coverTarget,
		Profile:     inst.Profile,
		Chaos:       *chaos || *chaosPeriod > 0,
		ChaosPeriod: *chaosPeriod,
		ServiceAddr: *serviceAddr,
	}
	if *arches != "" {
		opts.Arches = strings.Split(*arches, ",")
	}
	if *layers != "" {
		opts.Layers = strings.Split(*layers, ",")
	}
	if *workers != "" {
		for _, w := range strings.Split(*workers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(w))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "difftest: bad worker count %q\n", w)
				os.Exit(2)
			}
			opts.Workers = append(opts.Workers, n)
		}
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	if len(overrides) > 0 {
		// The daemon analyzes with its embedded descriptions, so pairing
		// -service-addr with a subject override would "compare" two
		// different ADLs and report bogus divergences.
		if *serviceAddr != "" {
			fmt.Fprintln(os.Stderr, "difftest: -service-addr cannot be combined with -adl overrides (the daemon serves the embedded ADLs)")
			os.Exit(2)
		}
		opts.Source = func(name string) (string, error) {
			if file, ok := overrides[name]; ok {
				src, err := os.ReadFile(file)
				return string(src), err
			}
			return arch.Source(name)
		}
	}

	res, err := difftest.Run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Chaos fault accounting goes to stderr like the other human
	// summaries; per-site "fired/surfaced" pairs make missing recoveries
	// obvious at a glance.
	if len(res.Injected) > 0 {
		keys := make([]string, 0, len(res.Injected))
		for k := range res.Injected {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(os.Stderr, "chaos: injected faults by site/kind:\n")
		for _, k := range keys {
			fmt.Fprintf(os.Stderr, "  %-20s %d\n", k, res.Injected[k])
		}
		fmt.Fprintf(os.Stderr, "chaos: surfaced panics by site:\n")
		skeys := make([]string, 0, len(res.Surfaced))
		for k := range res.Surfaced {
			skeys = append(skeys, k)
		}
		sort.Strings(skeys)
		for _, k := range skeys {
			fmt.Fprintf(os.Stderr, "  %-20s %d\n", k, res.Surfaced[k])
		}
	}
	// One soak record per run: throughput (rounds, checks) as the cost
	// axes and the per-ISA coverage floors as the coverage map, so the
	// gate catches a soak that got slower or stopped reaching cells.
	// Same-config soaks share a digest regardless of seed — seeds vary
	// the programs, not the workload class.
	err = inst.Finish(func(cov *cover.Report, _ *profile.Report) ledger.Record {
		var totalChecks int64
		for _, n := range res.Checks {
			totalChecks += n
		}
		summary := fmt.Sprintf("arches=%s layers=%s workers=%v rounds=%d duration=%v chaos=%v",
			*arches, *layers, opts.Workers, *rounds, *duration, opts.Chaos)
		rec := ledger.Record{
			Time:         time.Now().Unix(),
			Source:       "difftest",
			Label:        fmt.Sprintf("seed=%d", res.Seed),
			Digest:       ledger.Digest("difftest", nil, summary),
			ISA:          "all",
			Mode:         "soak",
			WallNS:       int64(res.Elapsed),
			Instructions: totalChecks,
			Paths:        int64(res.Rounds),
			Bugs:         int64(len(res.Divergences)),
		}
		rec.Coverage = make(map[string]float64, len(cov.ISAs))
		for _, ir := range cov.ISAs {
			rec.Coverage[ir.ISA] = ir.Floor()
		}
		return rec
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	fmt.Print(res.Summary())
	for _, d := range res.Divergences {
		fmt.Printf("\n%v\n", d)
	}
	if len(res.Divergences) > 0 {
		os.Exit(1)
	}
	if *coverMin > 0 {
		low := false
		for _, ir := range inst.Cover.Report().ISAs {
			if f := ir.Floor(); f < *coverMin {
				fmt.Fprintf(os.Stderr, "difftest: %s coverage floor %.1f%% is below -cover-min %.1f%%\n",
					ir.ISA, 100*f, 100**coverMin)
				low = true
			}
		}
		if low {
			os.Exit(4)
		}
	}
}
