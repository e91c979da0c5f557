// Resource-governor experiment: the cost of leaving the fault-isolation
// and degradation machinery armed — per-step recover boundary, solver
// deadline checks, state term accounting — on runs that never actually
// degrade (docs/robustness.md).
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
)

// GovernorOverheadRow is one workload measured with the governor off
// and armed (generous limits, so no degradation fires and the cost is
// pure bookkeeping).
type GovernorOverheadRow struct {
	Workload string
	Workers  int
	Paths    int
	CPUOff   time.Duration // median rep with no deadline or term budget
	CPUOn    time.Duration // median rep with SolverDeadline + MaxStateTerms armed
	Overhead float64       // median-vs-median (abMedians)
	Floor    float64       // A/A: off vs off, the noise floor of Overhead (abMedians)
}

// GovernorOverhead is the governor-armed vs governor-off experiment.
type GovernorOverhead struct {
	Rows []GovernorOverheadRow
}

// RunGovernorOverhead reruns the parallel-scaling workloads with the
// resource governor disarmed and armed with limits far above what the
// workloads use, so every deadline check and term count is paid and no
// degradation ever fires; abMedians interleaves the two. The recover
// boundary itself runs on both sides (it is unconditional), so the
// measured delta is the governor's bookkeeping. The acceptance bar is
// <=3% (see EXPERIMENTS.md).
func RunGovernorOverhead(workerCounts []int) GovernorOverhead {
	var t GovernorOverhead
	for _, wl := range parallelWorkloads() {
		for _, nw := range workerCounts {
			a, p := mustBuild(wl.arch, wl.src)
			row := GovernorOverheadRow{Workload: wl.name, Workers: nw}
			row.CPUOff, row.CPUOn, row.Overhead, row.Floor = abMedians(9, func(armed bool) {
				opts := core.Options{InputBytes: 10, MaxPaths: 1 << 11, Workers: nw}
				if armed {
					opts.SolverDeadline = 5 * time.Second
					opts.MaxStateTerms = 100000
				}
				r := mustRun("governor overhead", a, p, opts)
				if r.Stats.Degraded.Total() != 0 {
					panic("harness: governor overhead: generous limits degraded — the off/on runs are not comparable")
				}
				row.Paths = len(r.Paths)
			})
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Print writes the experiment in the repo's table format.
func (t GovernorOverhead) Print(w io.Writer) {
	fmt.Fprintf(w, "Governor overhead: deadline + term budget armed vs off (no degradation fires)\n")
	fmt.Fprintf(w, "%-16s %8s %6s %12s %12s %9s %9s\n",
		"workload", "workers", "paths", "cpu (off)", "cpu (armed)", "overhead", "a/a")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %8d %6d %12v %12v %+8.1f%% %+8.1f%%\n",
			r.Workload, r.Workers, r.Paths,
			r.CPUOff.Round(time.Millisecond), r.CPUOn.Round(time.Millisecond),
			100*r.Overhead, 100*r.Floor)
	}
}
