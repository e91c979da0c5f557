package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/baseline"
	"repro/internal/conc"
)

// ---- Compile experiment: semantics compiler vs interpretation ----
//
// The paper's Table 3 measures the interpretation gap of the generated
// engine against a hand-written one. The semantics compiler
// (docs/compile.md) is the answer to that gap, so this experiment
// re-measures the same workloads three ways on the concrete layer:
// compiled, interpreted and hand-written baseline. The symbolic engine
// has no interpreted step path; its evaluator-level ablation is
// BenchmarkCompiledVsInterp in internal/rtl. Repetitions are
// interleaved across modes and charged in CPU time by the instrument
// overhead experiment's protocol (abMedians), so a frequency ramp or
// background load skews every mode equally; each mode's median rate
// and quartiles are reported, with the compiled side's A/A floor.

// CompileConcRow is one concrete-layer workload measurement; the rates
// are of each mode's median rep.
type CompileConcRow struct {
	Workload     string
	Insns        int64
	CompiledRate float64 // instructions per CPU second
	InterpRate   float64
	BaseRate     float64
	Speedup      float64 // compiled / interpreted
	VsBase       float64 // baseline / compiled (1.0 = parity, <1 = faster than baseline)
	Floor        float64 // compiled vs compiled again: the A/A noise of the row

	insns [3]int64     // per mode: compiled, interpreted, baseline
	cpu   [3]quartiles // per mode, CPU time per rep
}

// CompileBench is the full compiled-vs-interpreted experiment.
type CompileBench struct {
	Conc []CompileConcRow
}

// compileWorkloads are the Table 3 throughput programs, scaled up so
// each run lasts milliseconds: one-time compilation (~25 units) and
// timer granularity must not color a throughput rate.
var compileWorkloads = []struct {
	name string
	n    int
}{
	{"sort", 96},
	{"checksum", 4000},
}

const compileReps = 15

// RunCompileBench measures the semantics compiler's effect on concrete
// emulation (tiny32: the only ISA with a hand-written baseline).
func RunCompileBench() CompileBench {
	var out CompileBench
	for _, wl := range compileWorkloads {
		a, p := mustBuild("tiny32", Throughput(wl.name, wl.n))

		runConc := func(noCompile bool) func() int64 {
			return func() int64 {
				m := conc.NewMachine(a)
				m.NoCompile = noCompile
				m.LoadProgram(p)
				if stop := m.Run(1 << 20); stop.Kind != conc.StopHalt {
					panic(fmt.Sprintf("harness: %s: %v", wl.name, stop))
				}
				return m.Steps
			}
		}
		runBase := func() int64 {
			m, err := baseline.NewConcMachine(p)
			if err != nil {
				panic(err)
			}
			if stop := m.Run(1 << 20); stop.Kind != "halt" {
				panic(fmt.Sprintf("harness: %s: %v", wl.name, stop))
			}
			return m.Steps
		}

		// Interleaved reps charged in CPU time (abMedians): compiled is
		// the off side, interpreted and baseline the variants.
		crow := CompileConcRow{Workload: fmt.Sprintf("%s(n=%d)", wl.name, wl.n)}
		modes := []func() int64{runConc(false), runConc(true), runBase}
		off, on, floor := abMedians(compileReps, len(modes)-1, func(v int) {
			crow.insns[v+1] = modes[v+1]()
		})
		crow.cpu = [3]quartiles{off, on[0], on[1]}
		crow.Insns, crow.Floor = crow.insns[0], floor
		crow.CompiledRate, crow.InterpRate, crow.BaseRate = crow.rate(0, off.med), crow.rate(1, on[0].med), crow.rate(2, on[1].med)
		if crow.InterpRate > 0 {
			crow.Speedup = crow.CompiledRate / crow.InterpRate
		}
		if crow.CompiledRate > 0 {
			crow.VsBase = crow.BaseRate / crow.CompiledRate
		}
		out.Conc = append(out.Conc, crow)
	}
	return out
}

// rate is mode m's instructions per second over a rep of CPU time d.
func (r CompileConcRow) rate(m int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(r.insns[m]) / d.Seconds()
}

// spread renders mode m's rate in millions: median [quartiles]. The
// slow quartile of CPU time is the low quartile of rate.
func (r CompileConcRow) spread(m int) string {
	q := r.cpu[m]
	return fmt.Sprintf("%.2fM [%.2f–%.2f]", r.rate(m, q.med)/1e6, r.rate(m, q.q3)/1e6, r.rate(m, q.q1)/1e6)
}

// geomean of the selected per-row values; 0 if any value is missing.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		if v <= 0 {
			return 0
		}
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// Print writes the table plus the aggregate ratios the acceptance
// criteria are stated in.
func (b CompileBench) Print(w io.Writer) {
	fmt.Fprintf(w, "Compile: concrete emulation, compiled vs interpreted vs hand-written (tiny32; insns per CPU second, median [quartiles] of %d reps)\n", compileReps)
	fmt.Fprintf(w, "%-16s %8s %22s %22s %22s %9s %9s %7s\n",
		"workload", "insns", "compiled i/s", "interp i/s", "baseline i/s", "speedup", "base/comp", "a/a")
	var vsBase, concSpeed []float64
	for _, r := range b.Conc {
		fmt.Fprintf(w, "%-16s %8d %22s %22s %22s %8.2fx %9.2f %+6.1f%%\n",
			r.Workload, r.Insns, r.spread(0), r.spread(1), r.spread(2), r.Speedup, r.VsBase, 100*r.Floor)
		vsBase = append(vsBase, r.VsBase)
		concSpeed = append(concSpeed, r.Speedup)
	}
	fmt.Fprintf(w, "geomean: %.2fx over interpretation, %.2f of hand-written cost (1.0 = parity)\n",
		geomean(concSpeed), geomean(vsBase))
}
