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
// interleaved across modes — compiled, interpreted, baseline,
// compiled, ... — so a frequency ramp or background load skews every
// mode equally; each mode's best rate is reported.

// CompileConcRow is one concrete-layer workload measurement.
type CompileConcRow struct {
	Workload     string
	Insns        int64
	CompiledRate float64 // instructions per second, best of reps
	InterpRate   float64
	BaseRate     float64
	Speedup      float64 // compiled / interpreted
	VsBase       float64 // baseline / compiled (1.0 = parity, <1 = faster than baseline)
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

const compileReps = 5

// timedRate runs fn once and returns its instructions-per-second rate
// and instruction count.
func timedRate(fn func() int64) (rate float64, insns int64) {
	t0 := time.Now()
	insns = fn()
	if el := time.Since(t0).Seconds(); el > 0 {
		rate = float64(insns) / el
	}
	return rate, insns
}

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

		// Interleave: one rep of every mode per pass.
		var crow CompileConcRow
		crow.Workload = fmt.Sprintf("%s(n=%d)", wl.name, wl.n)
		for rep := 0; rep < compileReps; rep++ {
			r, n := timedRate(runConc(false))
			if r > crow.CompiledRate {
				crow.CompiledRate = r
			}
			crow.Insns = n
			if r, _ := timedRate(runConc(true)); r > crow.InterpRate {
				crow.InterpRate = r
			}
			if r, _ := timedRate(runBase); r > crow.BaseRate {
				crow.BaseRate = r
			}
		}
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
	fmt.Fprintf(w, "Compile: concrete emulation, compiled vs interpreted vs hand-written (tiny32)\n")
	fmt.Fprintf(w, "%-16s %8s %14s %14s %14s %9s %9s\n",
		"workload", "insns", "compiled i/s", "interp i/s", "baseline i/s", "speedup", "base/comp")
	var vsBase, concSpeed []float64
	for _, r := range b.Conc {
		fmt.Fprintf(w, "%-16s %8d %14.0f %14.0f %14.0f %8.2fx %9.2f\n",
			r.Workload, r.Insns, r.CompiledRate, r.InterpRate, r.BaseRate, r.Speedup, r.VsBase)
		vsBase = append(vsBase, r.VsBase)
		concSpeed = append(concSpeed, r.Speedup)
	}
	fmt.Fprintf(w, "geomean: %.2fx over interpretation, %.2f of hand-written cost (1.0 = parity)\n",
		geomean(concSpeed), geomean(vsBase))
}
