// Profiler experiments: the cost of leaving the exploration profiler
// armed on the hot path (docs/observability.md). The profiler attributes
// per-PC cost into worker-local shards; the acceptance bar is <=3%
// overhead on the fork-heavy parallel workloads, matching the telemetry
// bar of RunObsOverhead.
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/profile"
)

// ProfileOverheadRow is one workload measured with the profiler off and
// armed.
type ProfileOverheadRow struct {
	Workload string
	Workers  int
	Paths    int
	CPUOff   time.Duration // median rep with Options.Profile == nil
	CPUOn    time.Duration // median rep with a fresh profiler attached
	Overhead float64       // median-vs-median (abMedians)
	Floor    float64       // A/A: off vs off, the noise floor of Overhead (abMedians)
	PCs      int           // distinct guest PCs attributed (sanity: > 0)
}

// ProfileOverhead is the profiler-armed vs profiler-off experiment.
type ProfileOverhead struct {
	Rows []ProfileOverheadRow
}

// RunProfileOverhead runs fork-heavy branch ladders with the
// exploration profiler disabled and armed, interleaved by abMedians.
// The ladders are two steps deeper than the parallel-scaling ones: each
// measured run lasts hundreds of milliseconds, without which scheduler
// jitter on a shared host swamps a low-percent signal.
func RunProfileOverhead(workerCounts []int) ProfileOverhead {
	workloads := []struct{ name, arch, src string }{
		{"ladder12/tiny32", "tiny32", BranchLadder("tiny32", 12)},
		{"ladder12/rv32i", "rv32i", BranchLadder("rv32i", 12)},
	}
	var t ProfileOverhead
	for _, wl := range workloads {
		for _, nw := range workerCounts {
			a, p := mustBuild(wl.arch, wl.src)
			row := ProfileOverheadRow{Workload: wl.name, Workers: nw}
			row.CPUOff, row.CPUOn, row.Overhead, row.Floor = abMedians(15, func(on bool) {
				opts := core.Options{InputBytes: 12, MaxPaths: 1 << 13, Workers: nw}
				if on {
					opts.Profile = profile.New(profile.Meta{ADL: wl.arch})
				}
				r := mustRun("profile overhead", a, p, opts)
				if on {
					row.PCs = len(opts.Profile.Snapshot().PCs)
				}
				row.Paths = len(r.Paths)
			})
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Print writes the experiment in the repo's table format.
func (t ProfileOverhead) Print(w io.Writer) {
	fmt.Fprintf(w, "Exploration-profiler overhead: armed vs off (fork-heavy exploration)\n")
	fmt.Fprintf(w, "%-16s %8s %6s %6s %12s %12s %9s %9s\n",
		"workload", "workers", "paths", "pcs", "cpu (off)", "cpu (on)", "overhead", "a/a")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %8d %6d %6d %12v %12v %+8.1f%% %+8.1f%%\n",
			r.Workload, r.Workers, r.Paths, r.PCs,
			r.CPUOff.Round(time.Millisecond), r.CPUOn.Round(time.Millisecond),
			100*r.Overhead, 100*r.Floor)
	}
}
