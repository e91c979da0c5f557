// Command experiments regenerates every table and figure of the
// reconstructed evaluation (see DESIGN.md §3 and EXPERIMENTS.md) and
// prints them to stdout.
//
// Usage:
//
//	experiments [-only table1|table2|table3|fig1|fig2|fig3|fig4|parallel|overhead|obs-stages|
//	                   coverage|compile|service-cache|ledger]
//	            [-workers 1,2,4] [-obs-addr :8089] [-ledger DIR] [-bench-out BENCH_ledger.json]
//
// -only ledger appends the parallel-scaling workloads to a run ledger
// (a throwaway one unless -ledger names a directory to accumulate
// baselines in) and exports each config's trajectory — rolling medians
// plus the latest run's regression-gate verdict — to -bench-out.
// -only overhead measures every armed instrument — metrics, coverage,
// the resource governor, the exploration profiler, live progress with
// the ledger append, and durable checkpoints at three paces (1 worker
// only) — against one shared off baseline and A/A floor per workload
// and worker count.
//
// -obs-addr serves expvar, pprof and build_info while the experiments
// run; it is the instrument flag the other commands share (table in
// docs/observability.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cli"
	"repro/internal/harness"
)

func main() {
	only := flag.String("only", "", "run a single experiment (table1..table5, fig1..fig4, parallel, overhead, obs-stages, coverage, compile, service-cache, ledger)")
	workers := flag.String("workers", "1,2,4", "comma-separated worker counts for -only parallel/overhead/ledger (0 = all CPUs)")
	inst := cli.Register(flag.CommandLine, cli.ObsAddr)
	flag.Lookup("obs-addr").Usage = "serve expvar and pprof on this address while experiments run (for live profiling)"
	ledgerDir := flag.String("ledger", "", "run-ledger directory for -only ledger (empty = throwaway temp dir)")
	benchOut := flag.String("bench-out", "BENCH_ledger.json", "trajectory export path for -only ledger")
	flag.Parse()

	if err := inst.Arm(""); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer inst.Close()

	var workerCounts []int
	for _, f := range strings.Split(*workers, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 0 {
			fmt.Fprintf(os.Stderr, "bad -workers value %q\n", f)
			os.Exit(2)
		}
		if n == 0 {
			n = runtime.NumCPU()
		}
		workerCounts = append(workerCounts, n)
	}

	switch *only {
	case "":
		harness.RunAll(os.Stdout)
	case "table1":
		harness.RunTable1().Print(os.Stdout)
	case "table2":
		harness.RunTable2().Print(os.Stdout)
	case "table3":
		harness.RunTable3().Print(os.Stdout)
	case "table4":
		harness.RunTable4(8).Print(os.Stdout)
	case "table5":
		harness.RunTable5().Print(os.Stdout)
	case "fig1":
		harness.PrintFig1(os.Stdout, harness.RunFig1(8))
	case "fig2":
		harness.PrintFig2(os.Stdout, harness.RunFig2(9))
	case "fig3":
		harness.PrintFig3(os.Stdout, harness.RunFig3([]int{3, 5, 7}))
	case "fig4":
		harness.PrintFig4(os.Stdout, harness.RunFig4([]uint{8, 16, 24, 32, 48, 64}))
	case "parallel":
		harness.RunParallelScaling(workerCounts).Print(os.Stdout)
	case "overhead":
		harness.RunOverhead(workerCounts).Print(os.Stdout)
	case "obs-stages":
		harness.RunObsStages().Print(os.Stdout)
	case "coverage":
		harness.RunCoverageMatrix().Print(os.Stdout)
	case "compile":
		harness.RunCompileBench().Print(os.Stdout)
	case "service-cache":
		harness.RunServiceCache().Print(os.Stdout)
	case "ledger":
		dir := *ledgerDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "symex-ledger-")
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		traj, err := harness.RunLedgerTrajectory(dir, workerCounts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		traj.Print(os.Stdout)
		if err := traj.WriteJSON(*benchOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "bench-out: wrote trajectory to %s\n", *benchOut)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
}
