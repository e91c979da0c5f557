// Instrument-overhead experiment: the cost of leaving each instrument
// armed on the hot path — the metrics registry, the coverage collector,
// the resource governor, the exploration profiler, live progress with
// the run-ledger append, and durable checkpoints — against the same
// run with everything off. The acceptance bar for every instrument is
// ±3% (EXPERIMENTS.md, docs/observability.md).
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cover"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/profile"
)

// OverheadRow is one instrument armed on one (workload, workers) cell.
// CPUOff and Floor belong to the cell: every instrument in it is
// measured against one shared off baseline with one A/A floor.
type OverheadRow struct {
	Instrument string
	Workload   string
	Workers    int
	Paths      int           // paths the armed runs explored
	CPUOff     time.Duration // median rep of the cell's off side
	CPUOn      time.Duration // median rep with the instrument armed
	Overhead   float64       // CPUOn vs CPUOff
	Floor      float64       // A/A: the cell's second off side vs its first
	Detail     string        // the instrument's sanity figure, if it has one
}

// Overhead is the instrument-overhead experiment.
type Overhead struct {
	Rows []OverheadRow
}

// RunOverhead measures every instrument on 12-branch ladders (4,096
// paths, hundreds of milliseconds per run: shorter runs let scheduler
// jitter on a shared host swamp a low-percent signal) at each worker
// count, 15 interleaved rounds per cell.
func RunOverhead(workerCounts []int) Overhead {
	return runOverhead(12, workerCounts, 15)
}

// runOverhead runs the experiment on k-branch ladders with reps rounds
// per (workload, workers) cell.
func runOverhead(k int, workerCounts []int, reps int) Overhead {
	scratch, err := os.MkdirTemp("", "overhead-")
	if err != nil {
		panic(fmt.Sprintf("harness: overhead: %v", err))
	}
	defer os.RemoveAll(scratch)
	led, err := ledger.Open(scratch)
	if err != nil {
		panic(fmt.Sprintf("harness: overhead: %v", err))
	}
	defer led.Close()

	var t Overhead
	for _, wl := range ladders(k) {
		a, p := mustBuild(wl.arch, wl.src)
		for _, nw := range workerCounts {
			ins := instruments(wl, nw, led, filepath.Join(scratch, "job.ckpt"))
			paths := make([]int, len(ins))
			off, on, floor := abMedians(reps, len(ins), func(v int) {
				opts := core.Options{InputBytes: k, MaxPaths: 1 << 13, Workers: nw}
				var after func(*core.Report)
				if v >= 0 {
					after = ins[v].arm(&opts)
				}
				r, err := core.NewEngine(a, p, opts).Run()
				if err != nil {
					panic(fmt.Sprintf("harness: overhead: %v", err))
				}
				if v < 0 {
					return
				}
				if after != nil {
					after(r)
				}
				paths[v] = len(r.Paths)
			})
			for v, in := range ins {
				row := OverheadRow{
					Instrument: in.name, Workload: wl.name, Workers: nw, Paths: paths[v],
					CPUOff: off.med, CPUOn: on[v].med, Overhead: relative(on[v].med, off.med), Floor: floor,
				}
				if in.detail != nil {
					row.Detail = in.detail()
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t
}

// instrument is one armed variant of a run. arm arms opts for one run
// and returns the check to call on its report, or nil; detail, if not
// nil, reads the instrument's sanity figure once its cell is done.
type instrument struct {
	name   string
	arm    func(opts *core.Options) (after func(*core.Report))
	detail func() string
}

// instruments returns fresh instruments for one cell: workload wl at
// nw workers. Armed progress runs append their record to led, and
// checkpointing runs write ckpt.
func instruments(wl workload, nw int, led *ledger.Ledger, ckpt string) []instrument {
	var pcs, samples int
	ins := []instrument{
		{name: "metrics", arm: func(o *core.Options) func(*core.Report) {
			o.Obs = obs.New() // registry, no tracer
			return nil
		}},
		{name: "coverage", arm: func(o *core.Options) func(*core.Report) {
			o.Cover = cover.New()
			return nil
		}},
		// Limits far above what the workload uses: every deadline check
		// and term count is paid, and no degradation ever fires.
		{name: "governor", arm: func(o *core.Options) func(*core.Report) {
			o.SolverDeadline = 5 * time.Second
			o.MaxStateTerms = 100000
			return func(r *core.Report) {
				if r.Stats.Degraded.Total() != 0 {
					panic("harness: overhead: generous governor limits degraded — the off/on runs are not comparable")
				}
			}
		}},
		{name: "profiler", arm: func(o *core.Options) func(*core.Report) {
			prof := profile.New(profile.Meta{ADL: wl.arch})
			o.Profile = prof
			return func(*core.Report) { pcs = len(prof.Snapshot().PCs) }
		}, detail: func() string { return fmt.Sprintf("%d pcs", pcs) }},
		// The full per-run cost the daemon pays for live progress: the
		// counters, a sampler reading a snapshot at once and then every
		// 250ms (as the symexd SSE stream does by default) and one
		// ledger append.
		{name: "progress+ledger", arm: func(o *core.Options) func(*core.Report) {
			prog := &core.Progress{}
			o.Progress = prog
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				tk := time.NewTicker(250 * time.Millisecond)
				defer tk.Stop()
				for {
					_ = prog.Snapshot()
					samples++
					select {
					case <-tk.C:
					case <-stop:
						return
					}
				}
			}()
			return func(r *core.Report) {
				close(stop)
				<-done
				err := led.Append(ledger.Build(ledger.BuildInput{
					Source: "experiments", Label: wl.name,
					Digest: ledger.Digest(wl.arch, []byte(wl.src), fmt.Sprintf("workers=%d", nw)),
					ISA:    wl.arch, Mode: "explore", Workers: nw, Stats: r.Stats,
					Now: time.Now(),
				}))
				if err != nil {
					panic(fmt.Sprintf("harness: overhead: %v", err))
				}
			}
		}, detail: func() string { return fmt.Sprintf("%d samples", samples) }},
	}
	if nw != 1 {
		return ins // checkpoints are serial-only
	}
	// The 500ms service default and two aggressive paces, each snapshot
	// written temp+rename as internal/service does. A snapshot grows
	// with progress; the engine's duty-cycle governor
	// (core.Options.CheckpointEvery) keeps the total bounded.
	for _, every := range []time.Duration{500 * time.Millisecond, 100 * time.Millisecond, 25 * time.Millisecond} {
		writes := 0
		ins = append(ins, instrument{name: "checkpoint " + every.String(), arm: func(o *core.Options) func(*core.Report) {
			o.CheckpointEvery = every
			o.Checkpoint = func(snap *core.Snapshot) {
				data, err := snap.Marshal()
				if err == nil {
					err = os.WriteFile(ckpt+".tmp", data, 0o644)
				}
				if err == nil {
					err = os.Rename(ckpt+".tmp", ckpt)
				}
				if err != nil {
					panic(fmt.Sprintf("harness: overhead: %v", err))
				}
				writes++
			}
			return nil
		}, detail: func() string { return fmt.Sprintf("%d writes", writes) }})
	}
	return ins
}

// abMedians is the interleaved A/B protocol of one cell with n variants.
// run(v) runs variant v, or the off side when v < 0. One unmeasured
// warmup run of the off side absorbs cold caches. Then each of reps
// rounds runs the off side, every variant and the off side again,
// rotating which goes first, so slow host drift within a round cancels
// instead of biasing one side. Each run is charged the process CPU time
// it costs (user + system, every thread), which, unlike wall time,
// waiting for a shared host's CPU does not inflate. Sides are compared
// by their medians, so one noisy run cannot swing a figure: off is the
// first off side, on[v] variant v, and floor is the second off side vs
// the first, the A/A noise an overhead has to clear to mean anything.
func abMedians(reps, n int, run func(v int)) (off quartiles, on []quartiles, floor float64) {
	run(-1)
	sides := make([][]time.Duration, n+2) // off, the variants, off again
	for rep := 0; rep < reps; rep++ {
		for k := range sides {
			side := (rep + k) % len(sides)
			v := side - 1
			if side == n+1 {
				v = -1
			}
			t0 := processCPU()
			run(v)
			sides[side] = append(sides[side], processCPU()-t0)
		}
	}
	qs := make([]quartiles, len(sides))
	for i, d := range sides {
		slices.Sort(d)
		qs[i] = quartiles{q1: d[len(d)/4], med: d[len(d)/2], q3: d[3*len(d)/4]}
	}
	return qs[0], qs[1 : n+1], relative(qs[n+1].med, qs[0].med)
}

// quartiles are one side's lower quartile, median and upper quartile
// CPU time per run (nearest rank).
type quartiles struct{ q1, med, q3 time.Duration }

// relative returns x's change over base as a fraction, 0 without a base.
func relative(x, base time.Duration) float64 {
	if base <= 0 {
		return 0
	}
	return float64(x-base) / float64(base)
}

// processCPU returns the CPU time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("harness: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Print writes the experiment in the repo's table format.
func (t Overhead) Print(w io.Writer) {
	fmt.Fprintf(w, "Instrument overhead: armed vs off (fork-heavy exploration; one off baseline and a/a floor per cell)\n")
	fmt.Fprintf(w, "%-16s %-16s %8s %6s %12s %12s %9s %9s  %s\n",
		"instrument", "workload", "workers", "paths", "cpu (off)", "cpu (on)", "overhead", "a/a", "detail")
	for _, r := range t.Rows {
		detail := r.Detail
		if detail == "" {
			detail = "-"
		}
		fmt.Fprintf(w, "%-16s %-16s %8d %6d %12v %12v %+8.1f%% %+8.1f%%  %s\n",
			r.Instrument, r.Workload, r.Workers, r.Paths,
			r.CPUOff.Round(time.Millisecond), r.CPUOn.Round(time.Millisecond),
			100*r.Overhead, 100*r.Floor, detail)
	}
}
