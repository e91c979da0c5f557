package difftest

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/prog"
)

// statusOf maps the concrete machine's stop reason onto the engine's
// path status; the two enumerations are defined to correspond 1:1.
func statusOf(k conc.StopKind) core.Status {
	switch k {
	case conc.StopHalt:
		return core.StatusHalt
	case conc.StopExit:
		return core.StatusExit
	case conc.StopFault:
		return core.StatusFault
	case conc.StopSteps:
		return core.StatusSteps
	case conc.StopDecode:
		return core.StatusDecode
	case conc.StopPanic:
		return core.StatusPanic
	}
	return core.StatusKilled
}

// regPairs matches subject registers to reference registers by name;
// only same-width pairs are comparable (the program counter is excluded:
// the engine leaves the fall-through expression in it).
func (g *archGen) regPairs() [][2]int {
	var out [][2]int
	for _, sr := range g.subj.Regs {
		if sr == g.subj.PC {
			continue
		}
		rr := g.ref.Reg(sr.Name)
		if rr == nil || rr == g.ref.PC || rr.Width != sr.Width {
			continue
		}
		out = append(out, [2]int{sr.Num, rr.Num})
	}
	return out
}

// engineEnd is the engine-side final state in comparable, fully
// concrete form (shared between the replay and exploration layers).
type engineEnd struct {
	status core.Status
	fault  string
	endPC  uint64
	steps  int64
	output []byte
	regs   []uint64
	mem    map[uint64]byte
}

// compareEnd diffs the engine end state against the concrete machine,
// returning "" on agreement. On StatusSteps the end pc is not compared:
// the engine reports the last executed instruction, the machine the next
// fetch address.
func (g *archGen) compareEnd(e engineEnd, m *conc.Machine, stop conc.Stop) string {
	var diffs []string
	add := func(format string, args ...interface{}) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	cstat := statusOf(stop.Kind)
	if e.status != cstat {
		add("status: engine %v (fault %q), conc %v (%v)", e.status, e.fault, cstat, stop)
	} else {
		if e.status == core.StatusFault && e.fault != stop.Fault {
			add("fault: engine %q, conc %q", e.fault, stop.Fault)
		}
		if e.status != core.StatusSteps && e.endPC != stop.PC {
			add("end pc: engine %#x, conc %#x", e.endPC, stop.PC)
		}
	}
	if e.steps != m.Steps {
		add("steps: engine %d, conc %d", e.steps, m.Steps)
	}
	if string(e.output) != string(m.Output) {
		add("output: engine %x, conc %x", e.output, m.Output)
	}
	cregs := m.RegSnapshot()
	for _, pr := range g.regPairs() {
		if e.regs[pr[0]] != cregs[pr[1]] {
			add("reg %s: engine %#x, conc %#x", g.subj.Regs[pr[0]].Name, e.regs[pr[0]], cregs[pr[1]])
		}
	}
	cmem := m.MemSnapshot()
	seen := make(map[uint64]bool, len(e.mem)+len(cmem))
	for a := range e.mem {
		seen[a] = true
	}
	for a := range cmem {
		seen[a] = true
	}
	nmem := 0
	for a := range seen {
		if e.mem[a] != cmem[a] {
			if nmem < 8 {
				add("mem[%#x]: engine %#x, conc %#x", a, e.mem[a], cmem[a])
			}
			nmem++
		}
	}
	if nmem > 8 {
		add("... %d more memory mismatches", nmem-8)
	}
	return strings.Join(diffs, "; ")
}

// runConcMode executes the program on the reference concrete machine
// with the engine's stack convention; noCompile runs every instruction
// through the RTL interpreter instead of compiled semantics.
func (g *archGen) runConcMode(p *prog.Program, input []byte, stackBase uint64, maxSteps int64, met *conc.Metrics, noCompile bool) (*conc.Machine, conc.Stop) {
	m := conc.NewMachine(g.ref)
	m.NoCompile = noCompile
	m.Metrics = met
	m.Inject = g.inj
	m.Dec.Inject = g.inj
	m.SetCover(g.rcov)
	m.LoadProgram(p)
	m.Input = append([]byte(nil), input...)
	if g.ref.SP != nil {
		m.WriteReg(g.ref.SP, stackBase)
	}
	stop := m.Run(maxSteps)
	return m, stop
}

// sampleInputs draws n random concrete inputs of k bytes each.
func sampleInputs(rg *rand.Rand, n, k int) [][]byte {
	inputs := make([][]byte, n)
	for i := range inputs {
		inputs[i] = make([]byte, k)
		rg.Read(inputs[i])
	}
	return inputs
}

// replayOne runs one input through engine concrete replay and the
// concrete machine (interpreted with noCompile). It returns the
// mismatch description ("" on agreement) and whether the comparison was
// skipped (the engine refuses to execute input-dependent instruction
// bytes — see docs/difftest.md).
func (g *archGen) replayOne(p *prog.Program, input []byte, maxSteps int64, o *obs.Obs, met *conc.Metrics, noCompile bool) (string, bool) {
	eng := core.NewEngine(g.subj, p, core.Options{InputBytes: len(input), MaxSteps: maxSteps, Obs: o, Cover: g.coll, Inject: g.inj})
	rep, err := eng.ReplayConcrete(input)
	if err != nil {
		return "engine replay: " + err.Error(), false
	}
	if rep.Status == core.StatusDecode && strings.Contains(rep.Fault, "symbolic instruction bytes") {
		return "", true
	}
	m, stop := g.runConcMode(p, input, eng.Opts.StackBase, maxSteps, met, noCompile)
	e := engineEnd{
		status: rep.Status, fault: rep.Fault, endPC: rep.EndPC, steps: rep.Steps,
		output: rep.Output, regs: rep.Regs, mem: rep.Mem,
	}
	return g.compareEnd(e, m, stop), false
}

// replayCompare generates one random program and diffs engine replay
// against the concrete machine on several random inputs; a divergence is
// minimized before it is recorded.
func (r *run) replayCompare(g *archGen, subSeed int64) {
	rg := rand.New(rand.NewSource(subSeed))
	const k = 4
	nBody := 4 + rg.Intn(10)
	src, ok := g.genProgram(rg, modeReplay, nBody, k)
	if !ok {
		return
	}
	inputs := sampleInputs(rg, 3, k)

	diverges := func(src string) (string, []byte) {
		p, err := g.as.Assemble("gen.s", src)
		if err != nil {
			return "", nil
		}
		for _, in := range inputs {
			if d, skip := g.replayOne(p, in, r.opts.MaxSteps, r.engineObs(), r.concMet, false); d != "" && !skip {
				return d, in
			}
		}
		return "", nil
	}

	r.checkpoint()
	if _, err := g.as.Assemble("gen.s", src); err != nil {
		r.res.Checks[LayerConcSym]++
		r.diverged(Divergence{
			Layer: LayerConcSym, Arch: g.name, Seed: subSeed,
			Detail:  "generated program does not assemble: " + err.Error(),
			Program: src,
		})
		return
	}
	p, _ := g.as.Assemble("gen.s", src)
	for _, in := range inputs {
		r.res.Checks[LayerConcSym]++
		r.checkpoint()
		d, skip := g.replayOne(p, in, r.opts.MaxSteps, r.engineObs(), r.concMet, false)
		if skip {
			r.res.Skipped[LayerConcSym]++
			continue
		}
		if d != "" {
			min := minimize(src, g, diverges)
			detail, input := diverges(min)
			if detail == "" { // minimization lost the bug; keep the original
				min, detail, input = src, d, in
			}
			r.diverged(Divergence{
				Layer: LayerConcSym, Arch: g.name, Seed: subSeed,
				Detail: detail, Program: min, Input: input,
			})
			return
		}
	}
}

// minimize greedily removes instruction lines while the program still
// assembles and still diverges. Label lines stay, so branch targets in
// the surviving lines remain valid.
func minimize(src string, g *archGen, diverges func(string) (string, []byte)) string {
	lines := strings.Split(strings.TrimRight(src, "\n"), "\n")
	for changed := true; changed; {
		changed = false
		for i := 0; i < len(lines); i++ {
			l := strings.TrimSpace(lines[i])
			if l == "" || strings.HasSuffix(l, ":") {
				continue // keep labels (and blanks) so references resolve
			}
			cand := strings.Join(append(append([]string{}, lines[:i]...), lines[i+1:]...), "\n") + "\n"
			if _, err := g.as.Assemble("gen.s", cand); err != nil {
				continue
			}
			if d, _ := diverges(cand); d != "" {
				lines = append(lines[:i], lines[i+1:]...)
				changed = true
				i--
			}
		}
	}
	return strings.Join(lines, "\n") + "\n"
}

// exploreCompare runs a branching program through full symbolic
// exploration (capturing end states) at every configured worker count,
// then checks that each sampled concrete input is covered by exactly one
// explored path whose fully evaluated end state matches the concrete
// machine.
func (r *run) exploreCompare(g *archGen, subSeed int64) {
	rg := rand.New(rand.NewSource(subSeed))
	const k = 2
	nBody := 3 + rg.Intn(6)
	src, ok := g.genProgram(rg, modeExplore, nBody, k)
	if !ok {
		return
	}
	r.checkpoint()
	p, err := g.as.Assemble("gen.s", src)
	if err != nil {
		r.res.Checks[LayerExplore]++
		r.diverged(Divergence{
			Layer: LayerExplore, Arch: g.name, Seed: subSeed,
			Detail:  "generated program does not assemble: " + err.Error(),
			Program: src,
		})
		return
	}
	inputs := sampleInputs(rg, 4, k)
	for _, w := range r.opts.Workers {
		r.checkpoint()
		if !r.checkExplore(g, LayerExplore, subSeed, src, p, inputs, w, false) {
			return
		}
	}
}

// checkExplore runs p through full exploration on w workers with end
// states captured, then checks that each input is covered by exactly
// one explored path whose fully evaluated end state matches the
// concrete machine (interpreted with noCompile). It returns false once
// it has recorded a divergence.
func (r *run) checkExplore(g *archGen, layer string, subSeed int64, src string, p *prog.Program, inputs [][]byte, w int, noCompile bool) bool {
	eng := core.NewEngine(g.subj, p, core.Options{
		InputBytes:      len(inputs[0]),
		MaxSteps:        r.opts.MaxSteps,
		MaxPaths:        256,
		MaxStates:       1024,
		Workers:         w,
		CaptureEndState: true,
		Seed:            subSeed,
		Obs:             r.engineObs(),
		Cover:           g.coll,
		Inject:          g.inj,
		Profile:         r.opts.Profile,
	})
	rep, err := eng.Run()
	if err != nil {
		r.res.Checks[layer]++
		r.diverged(Divergence{
			Layer: layer, Arch: g.name, Seed: subSeed,
			Detail:  fmt.Sprintf("engine run (workers=%d): %v", w, err),
			Program: src,
		})
		return false
	}
	if rep.Stats.StatesKilled > 0 || rep.Stats.PathsDone >= 256 {
		r.res.Skipped[layer]++ // budget truncation: path coverage unreliable
		return true
	}
	for _, in := range inputs {
		r.res.Checks[layer]++
		env := expr.Env{}
		for i, b := range in {
			env[fmt.Sprintf("in%d", i)] = uint64(b)
		}
		var match *core.PathResult
		nmatch := 0
		for i := range rep.Paths {
			pr := &rep.Paths[i]
			ok := true
			for _, c := range pr.PathCond {
				if !expr.EvalBool(c, env) {
					ok = false
					break
				}
			}
			if ok {
				match = pr
				nmatch++
			}
		}
		if nmatch != 1 {
			r.diverged(Divergence{
				Layer: layer, Arch: g.name, Seed: subSeed,
				Detail: fmt.Sprintf("workers=%d: input covered by %d explored paths, want exactly 1 (%d paths total)",
					w, nmatch, len(rep.Paths)),
				Program: src, Input: in,
			})
			return false
		}
		if match.End == nil {
			r.diverged(Divergence{
				Layer: layer, Arch: g.name, Seed: subSeed,
				Detail:  fmt.Sprintf("workers=%d: CaptureEndState set but path %d has no end state", w, match.ID),
				Program: src, Input: in,
			})
			return false
		}
		var out []byte
		for _, o := range match.Output {
			out = append(out, byte(expr.Eval(o, env)))
		}
		e := engineEnd{
			status: match.Status, fault: match.Fault, endPC: match.EndPC, steps: match.Steps,
			output: out, regs: match.End.EvalRegs(env), mem: match.End.EvalMem(env),
		}
		m, stop := g.runConcMode(p, in, eng.Opts.StackBase, r.opts.MaxSteps, r.concMet, noCompile)
		if d := g.compareEnd(e, m, stop); d != "" {
			r.diverged(Divergence{
				Layer: layer, Arch: g.name, Seed: subSeed,
				Detail:  fmt.Sprintf("workers=%d path %d: %s", w, match.ID, d),
				Program: src, Input: in,
			})
			return false
		}
	}
	return true
}
