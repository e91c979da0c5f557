package harness

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/adl"
	"repro/internal/core"
	"repro/internal/prog"
)

// abMedians is the interleaved A/B protocol every overhead experiment
// shares. One unmeasured warmup run of the off side absorbs cold caches.
// Then reps pairs alternate which side runs first, so slow host drift
// within a pair cancels instead of biasing one side, and the two sides'
// median wall times are compared, so one noisy rep cannot swing the
// figure. run executes one side and returns its wall time.
func abMedians(reps int, run func(on bool) time.Duration) (off, on time.Duration, overhead float64) {
	run(false)
	offs := make([]time.Duration, 0, reps)
	ons := make([]time.Duration, 0, reps)
	for rep := 0; rep < reps; rep++ {
		if rep%2 == 0 {
			offs = append(offs, run(false))
			ons = append(ons, run(true))
		} else {
			ons = append(ons, run(true))
			offs = append(offs, run(false))
		}
	}
	slices.Sort(offs)
	slices.Sort(ons)
	off, on = offs[reps/2], ons[reps/2]
	if off > 0 {
		overhead = float64(on-off) / float64(off)
	}
	return off, on, overhead
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
