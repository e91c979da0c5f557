package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/cover"
	"repro/internal/prog"
)

// probeMaxSteps bounds a probe run on both backends. Small on purpose:
// a probe program is one instruction, so anything still running after a
// few steps is looping and both backends stop with identical StopSteps.
const probeMaxSteps = 4

// probesPerRound caps how many uncovered instructions one round probes,
// so a probe round stays a small fixed slice of the round budget.
const probesPerRound = 8

// probeRound targets instructions the execution layers have never
// reached. The program generator's pools deliberately exclude whole
// classes — computed jumps, halts, raw traps — and random selection
// starves rare instructions, so coverage gaps persist no matter how
// long a soak runs. A probe closes them directly: synthesize one random
// valid encoding of an uncovered instruction, make it the entire
// program, and push it through the same engine-replay-vs-concrete
// comparison as any concsym check. This is safe for arbitrary
// instructions because both backends read unmapped memory as zero,
// follow the same trap convention (including identical unknown-code
// faults), and stop identically at the step budget — so even a
// backward jump or a wild store ends in comparable state.
func (r *run) probeRound(g *archGen, subSeed int64) {
	if g.cov == nil {
		return
	}
	rg := rand.New(rand.NewSource(subSeed))
	probed := 0
	for _, ins := range g.subj.Insns {
		if probed >= probesPerRound {
			break
		}
		// Only instructions with no execution-layer coverage at all are
		// worth a probe; the generator covers the rest organically.
		if g.cov.Hits(cover.LSym, ins) > 0 && g.cov.Hits(cover.LConc, ins) > 0 {
			continue
		}
		probed++
		word, _, err := synthWord(rg, ins)
		if err != nil {
			r.res.Skipped[LayerProbe]++
			continue
		}
		enc := encodingBytes(g.subj, word, ins.Format.Bytes())
		p := &prog.Program{
			Arch:     g.name,
			Entry:    0x1000,
			Segments: []prog.Segment{{Addr: 0x1000, Data: enc}},
		}
		// A non-empty input keeps the read trap comparable: with no
		// input the engine would hand out fresh symbolic bytes (which
		// replay evaluates to zero) while the machine reports EOF.
		input := make([]byte, probeMaxSteps)
		rg.Read(input)
		r.res.Checks[LayerProbe]++
		r.checkpoint()
		d, skip := g.replayOne(p, input, probeMaxSteps, r.engineObs(), r.concMet, false)
		if skip {
			r.res.Skipped[LayerProbe]++
			continue
		}
		if d != "" {
			r.diverged(Divergence{
				Layer: LayerProbe, Arch: g.name, Seed: subSeed,
				Detail:  fmt.Sprintf("probe %s (encoding % x): %s", ins.Name, enc, d),
				Program: fmt.Sprintf("; single-instruction probe of %s\n; raw encoding: % x\n", ins.Name, enc),
				Input:   input,
			})
		}
	}
}
