// Parallel-scaling experiment: the same fork-heavy workload explored
// with an increasing worker count, reporting paths/sec, speedup over
// serial, solver-time share and query-cache effectiveness. This is the
// measurement behind the engine's Workers option (docs/engine.md).
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
)

// ParallelRow is one (workload, workers) measurement.
type ParallelRow struct {
	Workload    string
	Workers     int
	Paths       int
	Bugs        int
	Wall        time.Duration
	PathsPerSec float64
	Speedup     float64 // vs the workers=1 row of the same workload
	SolverShare float64 // solver (solve+blast) time / total cpu time
	CacheHit    float64 // query-cache hit rate
}

// ParallelScaling is the whole experiment.
type ParallelScaling struct {
	Rows []ParallelRow
}

// workload is one named program of a fork-heavy experiment.
type workload struct{ name, arch, src string }

// ladders are fork-heavy programs where exploration dominates: a
// branch ladder of k branches (2^k paths) on two ISAs.
func ladders(k int) []workload {
	var wls []workload
	for _, a := range []string{"tiny32", "rv32i"} {
		wls = append(wls, workload{fmt.Sprintf("ladder%d/%s", k, a), a, BranchLadder(a, k)})
	}
	return wls
}

// RunParallelScaling measures the workloads for every worker count,
// keeping the fastest of three repetitions per configuration.
func RunParallelScaling(workerCounts []int) ParallelScaling {
	const reps = 3
	var t ParallelScaling
	for _, wl := range ladders(10) {
		base := 0.0
		for _, nw := range workerCounts {
			a, p := mustBuild(wl.arch, wl.src)
			var r *core.Report
			for rep := 0; rep < reps; rep++ {
				e := core.NewEngine(a, p, core.Options{
					InputBytes: 10,
					MaxPaths:   1 << 11,
					Workers:    nw,
				})
				for _, c := range checker.All() {
					e.AddChecker(c)
				}
				rr, err := e.Run()
				if err != nil {
					panic(fmt.Sprintf("harness: parallel scaling: %v", err))
				}
				if r == nil || rr.Stats.WallTime < r.Stats.WallTime {
					r = rr
				}
			}
			row := ParallelRow{
				Workload: wl.name,
				Workers:  nw,
				Paths:    len(r.Paths),
				Bugs:     len(r.Bugs),
				Wall:     r.Stats.WallTime,
			}
			if r.Stats.WallTime > 0 {
				row.PathsPerSec = float64(len(r.Paths)) / r.Stats.WallTime.Seconds()
			}
			if nw == workerCounts[0] && base == 0 {
				base = row.PathsPerSec
			}
			if base > 0 {
				row.Speedup = row.PathsPerSec / base
			}
			solver := r.Stats.Solver.SolveTime + r.Stats.Solver.BlastTime
			// In parallel runs solver time is summed over workers, so
			// relate it to summed busy time rather than wall time.
			busy := r.Stats.WallTime
			if len(r.Stats.WorkerStats) > 0 {
				busy = 0
				for _, ws := range r.Stats.WorkerStats {
					busy += ws.Busy
				}
			}
			if busy > 0 {
				row.SolverShare = float64(solver) / float64(busy)
			}
			if h, m := r.Stats.Solver.CacheHits, r.Stats.Solver.CacheMisses; h+m > 0 {
				row.CacheHit = float64(h) / float64(h+m)
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Print writes the experiment in the repo's table format.
func (t ParallelScaling) Print(w io.Writer) {
	fmt.Fprintf(w, "Parallel scaling: fork-heavy exploration, workers vs throughput\n")
	fmt.Fprintf(w, "%-16s %8s %6s %5s %10s %10s %8s %13s %9s\n",
		"workload", "workers", "paths", "bugs", "wall", "paths/s", "speedup", "solver share", "cache hit")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %8d %6d %5d %10v %10.0f %7.2fx %12.0f%% %8.0f%%\n",
			r.Workload, r.Workers, r.Paths, r.Bugs, r.Wall.Round(time.Millisecond),
			r.PathsPerSec, r.Speedup, 100*r.SolverShare, 100*r.CacheHit)
	}
}
