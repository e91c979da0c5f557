// The compile layer (docs/compile.md): the RTL interpreter is the
// reference for compiled execution. Three sub-checks per unit:
//
//  1. the concrete machine, run compiled (superblocks on) and with
//     NoCompile, must end in identical full machine state;
//  2. the engine's concrete replay must end in the state of the
//     interpreted (NoCompile) concrete machine, through compareEnd;
//  3. full symbolic exploration must cover each sampled input with
//     exactly one path whose evaluated end state matches the
//     interpreted concrete machine, through compareEnd.
//
// In chaos mode the two sides of each comparison draw different
// injection schedules (the compiled path fires fewer decode sites, for
// example), so any divergence recorded while the injector fired since
// the unit's checkpoint is dropped as a skip — exactly the contract of
// every other layer (see chaos.go).
package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/conc"
	"repro/internal/core"
)

// diffConcPair diffs two concrete machines of the same architecture
// field by field, returning "" on agreement. Unlike compareEnd there is
// no status mapping or pc caveat: both sides are the same machine type,
// so every observable must match exactly.
func (g *archGen) diffConcPair(cm *conc.Machine, cstop conc.Stop, im *conc.Machine, istop conc.Stop) string {
	var diffs []string
	add := func(format string, args ...interface{}) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if cstop.Kind != istop.Kind || cstop.PC != istop.PC || cstop.Fault != istop.Fault {
		add("stop: compiled %v, interpreted %v", cstop, istop)
	}
	if cm.Steps != im.Steps {
		add("steps: compiled %d, interpreted %d", cm.Steps, im.Steps)
	}
	if string(cm.Output) != string(im.Output) {
		add("output: compiled %x, interpreted %x", cm.Output, im.Output)
	}
	cregs, iregs := cm.RegSnapshot(), im.RegSnapshot()
	for i := range cregs {
		if cregs[i] != iregs[i] {
			add("reg %s: compiled %#x, interpreted %#x", g.ref.Regs[i].Name, cregs[i], iregs[i])
		}
	}
	cmem, imem := cm.MemSnapshot(), im.MemSnapshot()
	seen := make(map[uint64]bool, len(cmem)+len(imem))
	for a := range cmem {
		seen[a] = true
	}
	for a := range imem {
		seen[a] = true
	}
	nmem := 0
	for a := range seen {
		if cmem[a] != imem[a] {
			if nmem < 8 {
				add("mem[%#x]: compiled %#x, interpreted %#x", a, cmem[a], imem[a])
			}
			nmem++
		}
	}
	if nmem > 8 {
		add("... %d more memory mismatches", nmem-8)
	}
	return strings.Join(diffs, "; ")
}

// compileCompare generates one program and diffs compiled against
// interpreted execution in the concrete machine, and engine replay
// against the interpreted machine, on several random inputs.
func (r *run) compileCompare(g *archGen, subSeed int64) {
	rg := rand.New(rand.NewSource(subSeed))
	const k = 3
	nBody := 4 + rg.Intn(10)
	src, ok := g.genProgram(rg, modeReplay, nBody, k)
	if !ok {
		return
	}
	p, err := g.as.Assemble("gen.s", src)
	if err != nil {
		return // the concsym layer reports generator/assembler disagreements
	}
	// One engine just for the default stack base, so the concrete pair
	// starts from the same state the replay pair does.
	stackBase := core.NewEngine(g.subj, p, core.Options{InputBytes: k}).Opts.StackBase
	for _, in := range sampleInputs(rg, 3, k) {
		// Concrete machine: compiled (superblocks on) vs NoCompile.
		r.res.Checks[LayerCompile]++
		r.checkpoint()
		cm, cstop := g.runConcMode(p, in, stackBase, r.opts.MaxSteps, r.concMet, false)
		im, istop := g.runConcMode(p, in, stackBase, r.opts.MaxSteps, r.concMet, true)
		if d := g.diffConcPair(cm, cstop, im, istop); d != "" {
			r.diverged(Divergence{
				Layer: LayerCompile, Arch: g.name, Seed: subSeed,
				Detail: "conc compiled vs interpreted: " + d, Program: src, Input: in,
			})
			return
		}

		// Engine concrete replay vs the interpreted machine.
		r.res.Checks[LayerCompile]++
		r.checkpoint()
		d, skip := g.replayOne(p, in, r.opts.MaxSteps, r.engineObs(), r.concMet, true)
		if skip {
			r.res.Skipped[LayerCompile]++
			continue
		}
		if d != "" {
			r.diverged(Divergence{
				Layer: LayerCompile, Arch: g.name, Seed: subSeed,
				Detail: "replay vs interpreted conc: " + d, Program: src, Input: in,
			})
			return
		}
	}
}

// compileExplore runs one branching program through full exploration
// and matches sampled inputs' paths against the interpreted machine.
func (r *run) compileExplore(g *archGen, subSeed int64) {
	rg := rand.New(rand.NewSource(subSeed))
	const k = 2
	nBody := 3 + rg.Intn(6)
	src, ok := g.genProgram(rg, modeExplore, nBody, k)
	if !ok {
		return
	}
	p, err := g.as.Assemble("gen.s", src)
	if err != nil {
		return
	}
	r.checkpoint()
	r.checkExplore(g, LayerCompile, subSeed, src, p, sampleInputs(rg, 4, k), 1, true)
}
