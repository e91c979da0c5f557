package harness

import (
	"fmt"
	"slices"
	"syscall"
	"time"

	"repro/internal/adl"
	"repro/internal/core"
	"repro/internal/prog"
)

// abMedians is the interleaved A/B protocol every overhead experiment
// shares. One unmeasured warmup run of the off side absorbs cold caches.
// Then each of reps rounds runs the off side, the on side and the off
// side again, rotating which goes first, so slow host drift within a
// round cancels instead of biasing one side. Each run is charged the
// process CPU time it costs (user + system, every thread), which,
// unlike wall time, waiting for a shared host's CPU does not inflate.
// The sides' medians are compared, so one noisy run cannot swing the
// figure: overhead is on vs off, and floor is the second off side vs
// the first, the A/A noise an overhead has to clear to mean anything.
func abMedians(reps int, run func(on bool)) (off, on time.Duration, overhead, floor float64) {
	run(false)
	var sides [3][]time.Duration // off, on, off again
	for rep := 0; rep < reps; rep++ {
		for k := 0; k < 3; k++ {
			side := (rep + k) % 3
			t0 := processCPU()
			run(side == 1)
			sides[side] = append(sides[side], processCPU()-t0)
		}
	}
	med := func(d []time.Duration) time.Duration {
		slices.Sort(d)
		return d[len(d)/2]
	}
	off, on, again := med(sides[0]), med(sides[1]), med(sides[2])
	if off > 0 {
		overhead = float64(on-off) / float64(off)
		floor = float64(again-off) / float64(off)
	}
	return off, on, overhead, floor
}

// processCPU returns the CPU time this process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("harness: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mustRun explores p with opts, panicking on an engine error; what
// names the experiment in the panic.
func mustRun(what string, a *adl.Arch, p *prog.Program, opts core.Options) *core.Report {
	r, err := core.NewEngine(a, p, opts).Run()
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", what, err))
	}
	return r
}
