// Telemetry experiment: the per-stage time breakdown the registry
// histograms expose (docs/observability.md). What arming the registry
// costs is measured by the instrument-overhead experiment (overhead.go).
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// ObsStages is the per-stage time breakdown of one concolic run, read
// back from the registry's latency histograms.
type ObsStages struct {
	Workload string
	Runs     int           // concrete executions performed
	Wall     time.Duration // end-to-end wall time
	Step     time.Duration // engine_step_seconds sum x core.StepSampleRate (estimate)
	Decode   time.Duration // engine_decode_seconds
	Solve    time.Duration // smt_solve_seconds (SAT search)
	Blast    time.Duration // smt_blast_seconds (bit-blasting)
	Steps    int64         // instructions stepped
	Checks   int64         // solver Check calls
}

// RunObsStages runs generational concolic testing on a branch-ladder
// workload with the registry attached and reports where the time went:
// the solve/blast histograms cover the solver, the step/decode
// histograms cover execution. Everything is read back through the same
// instruments /metrics would serve.
func RunObsStages() ObsStages {
	const k = 8
	a, p := mustBuild("tiny32", BranchLadder("tiny32", k))
	o := obs.New()
	e := core.NewEngine(a, p, core.Options{InputBytes: k, MaxPaths: 1 << (k + 1), Obs: o})
	t0 := time.Now()
	cr, err := e.Concolic(nil, 1<<(k+1))
	if err != nil {
		panic(fmt.Sprintf("harness: obs stages: %v", err))
	}
	reg := o.Reg
	hist := func(name string) *obs.Histogram {
		return reg.Histogram(name, "", obs.TimeBuckets)
	}
	return ObsStages{
		Workload: fmt.Sprintf("ladder%d/tiny32 (concolic)", k),
		Runs:     len(cr.Paths),
		Wall:     time.Since(t0),
		Step:     hist("engine_step_seconds").SumDuration() * core.StepSampleRate,
		Decode:   hist("engine_decode_seconds").SumDuration(),
		Solve:    hist("smt_solve_seconds").SumDuration(),
		Blast:    hist("smt_blast_seconds").SumDuration(),
		Steps:    reg.Counter("engine_instructions_total", "").Value(),
		Checks:   reg.Counter("smt_checks_total", "").Value(),
	}
}

// Print writes the breakdown in the repo's table format.
func (s ObsStages) Print(w io.Writer) {
	fmt.Fprintf(w, "Per-stage time breakdown: %s, %d runs, %d instructions, %d solver checks\n",
		s.Workload, s.Runs, s.Steps, s.Checks)
	pct := func(d time.Duration) float64 {
		if s.Wall <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(s.Wall)
	}
	fmt.Fprintf(w, "%-22s %12s %9s\n", "stage", "time", "of wall")
	fmt.Fprintf(w, "%-22s %12v %8.0f%%\n", "solver: SAT search", s.Solve.Round(time.Microsecond), pct(s.Solve))
	fmt.Fprintf(w, "%-22s %12v %8.0f%%\n", "solver: bit-blast", s.Blast.Round(time.Microsecond), pct(s.Blast))
	fmt.Fprintf(w, "%-22s %12v %8.0f%%\n", "engine: decode", s.Decode.Round(time.Microsecond), pct(s.Decode))
	fmt.Fprintf(w, "%-22s %12v %8.0f%%\n", "engine: step (est.)", s.Step.Round(time.Microsecond), pct(s.Step))
	fmt.Fprintf(w, "%-22s %12v\n", "wall", s.Wall.Round(time.Microsecond))
}
