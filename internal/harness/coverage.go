// Coverage experiments: the semantic-coverage matrix every ADL reaches
// under the standard difftest smoke budget, and the cost of leaving the
// internal/cover collector switched on in the hot path
// (docs/coverage.md).
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/difftest"
)

// CoverageMatrix is the per-ISA, per-layer coverage every embedded ADL
// reaches under the standard coverage-guided smoke budget.
type CoverageMatrix struct {
	Seed        int64
	Rounds      int
	Divergences int
	Report      *cover.Report
	Collector   *cover.Collector
}

// coverSmokeRounds is the standard smoke budget: enough coverage-guided
// rounds for every embedded ADL to saturate instruction coverage on the
// decode, translate and execution layers (verified by TestCoverSmoke),
// small enough to run inside `make check`.
const coverSmokeRounds = 40

// RunCoverageMatrix runs the differential oracle over every embedded
// architecture with the coverage collector attached and coverage-guided
// generation on, and returns the resulting matrix. The run is a pure
// function of the seed, so the table it prints is reproducible.
func RunCoverageMatrix() CoverageMatrix {
	coll := cover.New()
	res, err := difftest.Run(difftest.Options{
		Seed:        1,
		Rounds:      coverSmokeRounds,
		Workers:     []int{1},
		Cover:       coll,
		CoverGuided: true,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: coverage matrix: %v", err))
	}
	return CoverageMatrix{
		Seed:        1,
		Rounds:      res.Rounds,
		Divergences: len(res.Divergences),
		Report:      coll.Report(),
		Collector:   coll,
	}
}

// Print writes the matrix in the repo's table format: one block per
// ISA, one row per layer, with every remaining gap named.
func (m CoverageMatrix) Print(w io.Writer) {
	fmt.Fprintf(w, "Semantic coverage after the smoke budget (%d coverage-guided rounds, seed %d, %d divergences)\n",
		m.Rounds, m.Seed, m.Divergences)
	m.Collector.WriteText(w)
}

// CoverOverheadRow is one workload measured with the coverage collector
// off and on.
type CoverOverheadRow struct {
	Workload string
	Workers  int
	Paths    int
	CPUOff   time.Duration // median rep with Options.Cover == nil
	CPUOn    time.Duration // median rep with Options.Cover == cover.New()
	Overhead float64       // median-vs-median (abMedians)
	Floor    float64       // A/A: off vs off, the noise floor of Overhead (abMedians)
}

// CoverOverhead is the coverage-on vs coverage-off experiment.
type CoverOverhead struct {
	Rows []CoverOverheadRow
}

// RunCoverOverhead reruns the parallel-scaling workloads with the
// coverage collector detached and attached, interleaved by abMedians.
// The collector is a few atomic adds per instruction, so the acceptance
// bar is the same <=3% as the metrics registry (see EXPERIMENTS.md).
func RunCoverOverhead(workerCounts []int) CoverOverhead {
	var t CoverOverhead
	for _, wl := range parallelWorkloads() {
		for _, nw := range workerCounts {
			a, p := mustBuild(wl.arch, wl.src)
			row := CoverOverheadRow{Workload: wl.name, Workers: nw}
			row.CPUOff, row.CPUOn, row.Overhead, row.Floor = abMedians(9, func(on bool) {
				opts := core.Options{InputBytes: 10, MaxPaths: 1 << 11, Workers: nw}
				if on {
					opts.Cover = cover.New()
				}
				r := mustRun("cover overhead", a, p, opts)
				row.Paths = len(r.Paths)
			})
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Print writes the experiment in the repo's table format.
func (t CoverOverhead) Print(w io.Writer) {
	fmt.Fprintf(w, "Coverage overhead: collector on vs off (fork-heavy exploration)\n")
	fmt.Fprintf(w, "%-16s %8s %6s %12s %12s %9s %9s\n",
		"workload", "workers", "paths", "cpu (off)", "cpu (on)", "overhead", "a/a")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %8d %6d %12v %12v %+8.1f%% %+8.1f%%\n",
			r.Workload, r.Workers, r.Paths,
			r.CPUOff.Round(time.Millisecond), r.CPUOn.Round(time.Millisecond),
			100*r.Overhead, 100*r.Floor)
	}
}
