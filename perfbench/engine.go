package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/arch"
	"repro/internal/adl"
	"repro/internal/asm"
	"repro/internal/checker"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/prog"
)

// engineKind is one of the workloads that drive core.Engine directly,
// as cmd/symex does: one fresh engine per unit, every checker armed.
type engineKind struct {
	pool  func(seed uint64) []Unit
	opts  func(u Unit) core.Options
	check func(u Unit, a *adl.Arch, p *prog.Program, r *core.Report) error
}

var engineKinds = map[string]engineKind{
	"ladder": {
		pool: func(seed uint64) []Unit { return LadderPool(seed, 4) },
		opts: func(u Unit) core.Options {
			return core.Options{InputBytes: u.Inputs, MaxSteps: 100000, MaxPaths: 1 << ladderK}
		},
		check: checkLadder,
	},
	"straightline": {
		pool: func(seed uint64) []Unit { return StraightPool(seed, 4) },
		opts: func(u Unit) core.Options {
			return core.Options{InputBytes: u.Inputs, MaxSteps: 100000, MaxPaths: 1}
		},
		check: checkStraight,
	},
	"bughunt": {
		pool: func(seed uint64) []Unit { return BughuntPool(seed, 48) },
		opts: func(u Unit) core.Options {
			return core.Options{InputBytes: u.Inputs, MaxSteps: 10000, StopOnBug: true}
		},
		check: checkBughunt,
	},
}

// Set-up repeats until it has used setupCPU of CPU time, and at least
// setupMinReps times; setup_s is the median repetition, so a cold or
// slow repetition does not move it, and a set-up of a few milliseconds
// is still sampled dozens of times.
const (
	setupCPU     = 250 * time.Millisecond
	setupMinReps = 5
)

// moreSetup reports whether set-up should run again after rep
// repetitions that used spent CPU time.
func moreSetup(rep int, spent time.Duration) bool {
	return rep < setupMinReps || spent < setupCPU
}

// prepared is the output of one set-up: loaded ADLs and assembled
// images, with the time each layer took.
type prepared struct {
	archs        map[string]*adl.Arch
	progs        []*prog.Program
	load, assemb time.Duration
	imageBytes   int
}

// prepare loads the three ADLs and assembles every unit of the run.
func prepare(units []Unit, tr *Tracer, rep int) (*prepared, error) {
	p := &prepared{archs: map[string]*adl.Arch{}}
	for _, name := range isas {
		t0 := time.Now()
		a, err := arch.Load(name)
		if err != nil {
			return nil, err
		}
		p.load += time.Since(t0)
		tr.span("adl.load", -rep-1, "", t0)
		p.archs[name] = a
	}
	for _, u := range units {
		t0 := time.Now()
		pg, err := asm.New(p.archs[u.ISA]).Assemble(u.Name+".s", u.Src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.Name, err)
		}
		p.assemb += time.Since(t0)
		tr.span("asm.assemble", -rep-1, "", t0)
		p.progs = append(p.progs, pg)
		p.imageBytes += pg.Size()
	}
	return p, nil
}

// setupRepeated repeats set-up and keeps the last result. Set-up is
// charged in process CPU time, like the units.
func setupRepeated(units []Unit, tr *Tracer, r *report) (*prepared, error) {
	var total, load, assemb []float64
	var p *prepared
	var spent time.Duration
	for rep := 0; moreSetup(rep, spent); rep++ {
		c0 := cpuTime()
		var err error
		if p, err = prepare(units, tr, rep); err != nil {
			return nil, err
		}
		c := cpuTime() - c0
		spent += c
		total = append(total, c.Seconds())
		load = append(load, ms(p.load))
		assemb = append(assemb, ms(p.assemb))
	}
	r.setupS = median(total)
	r.layer("adl.load_ms", median(load), "ms")
	r.layer("asm.assemble_ms", median(assemb), "ms")
	r.layer("asm.image_bytes", float64(p.imageBytes), "bytes")
	return p, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// counts are the exact per-unit counters the program reports; the same
// program must give the same counts every time it runs.
type counts struct {
	paths, bugs                                      int
	forks, insns, decode, compiled, sbInsns, foundAt int64
	maxLive                                          int
	queries, sat, unsat, clauses, aux                int64
	hits, misses, deadlines                          int64
}

func countsOf(r *core.Report) counts {
	s := r.Stats
	c := counts{paths: len(r.Paths), bugs: len(r.Bugs), forks: s.Forks, insns: s.Instructions,
		decode: s.DecodeCalls, compiled: s.CompiledUnits, sbInsns: s.SuperblockInsns, maxLive: s.MaxLiveSet,
		queries: s.Solver.Queries, sat: s.Solver.SatResults, unsat: s.Solver.UnsatCount,
		clauses: s.Solver.Clauses, aux: s.Solver.AuxVars, hits: s.Solver.CacheHits,
		misses: s.Solver.CacheMisses, deadlines: s.Solver.Deadlines}
	if len(r.Bugs) > 0 {
		c.foundAt = r.Bugs[0].FoundAt
	}
	return c
}

// unitSample is what one measured unit leaves behind.
type unitSample struct {
	cpuMS, wallMS float64
	runCPUMS      float64
	allocBytes    float64
	allocObjs     float64
}

// phase is one measured stretch of a run: units until the time is up
// and the percentile rule can be met. unitCPU and unitWall are the
// samples the end-to-end percentiles come from.
type phase struct {
	unitCPU  []float64
	unitWall []float64
	measured time.Duration // symexd: process CPU of the measured jobs
	rssMB    float64       // symexd: VmHWM after the measured jobs
	samples  []unitSample
	cpu      time.Duration
	wall     time.Duration
	steal    float64
	forks    int64
	insns    int64
	queries  int64
	heapMax  float64
	gcCPU    float64
	numGC    float64
}

// merge returns the untraced phases a and b as one: their samples and
// their time, with the steal share weighted by wall time.
func (a *phase) merge(b *phase) *phase {
	return &phase{
		unitCPU:  append(append([]float64(nil), a.unitCPU...), b.unitCPU...),
		unitWall: append(append([]float64(nil), a.unitWall...), b.unitWall...),
		cpu:      a.cpu + b.cpu,
		wall:     a.wall + b.wall,
		steal:    (a.steal*a.wall.Seconds() + b.steal*b.wall.Seconds()) / (a.wall + b.wall).Seconds(),
	}
}

// runtime/metrics read around units and phases, indexed by the rt*
// constants.
var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/memory/classes/heap/objects:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

const (
	rtAllocBytes = iota
	rtAllocObjs
	rtHeapBytes
	rtGCCPU
	rtGCCycles
)

func readRT() []float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i, v := range s {
		switch v.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(v.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = v.Value.Float64()
		}
	}
	return out
}

// runEngine measures one engine workload.
func runEngine(k engineKind, cfg config, r *report) error {
	units := k.pool(cfg.seed)
	p, err := setupRepeated(units, cfg.tr, r)
	if err != nil {
		return err
	}
	ref := make([]*counts, len(units)) // counts of each program's first run

	// Units run on this goroutine, locked to its thread, and are charged
	// that thread's CPU time: everything the engine does, GC assists
	// included, but not the GC's background workers on other threads,
	// whose CPU shows in units_per_cpu_s and runtime.gc_cpu_fraction.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runPhase := func(d time.Duration, tr *Tracer, unitBase int) (*phase, error) {
		ph := &phase{}
		minN := max(minSamples(0.9), len(units)) // and one full pass of the pool
		w, err := openWindow()
		if err != nil {
			return nil, err
		}
		for i := 0; time.Since(w.wall) < d || i < minN; i++ {
			idx := (unitBase + i) % len(units)
			u, pg := units[idx], p.progs[idx]
			a := p.archs[u.ISA]
			var rtA []float64
			if tr != nil {
				rtA = readRT()
			}
			id := unitBase + i
			c0, t0 := threadCPUTime(), time.Now()
			e := core.NewEngine(a, pg, k.opts(u))
			for _, c := range checker.All() {
				e.AddChecker(c)
			}
			tr.span("core.new_engine", id, "", t0)
			c1, t1 := threadCPUTime(), time.Now()
			rep, err := e.Run()
			c2 := threadCPUTime()
			tr.span("core.run", id, "", t1)
			s := unitSample{cpuMS: ms(c2 - c0), wallMS: ms(time.Since(t0)), runCPUMS: ms(c2 - c1)}
			r.attempted++
			if err != nil {
				r.fail("%s: run: %v", u.Name, err)
				continue
			}
			if tr != nil {
				rtB := readRT()
				s.allocBytes, s.allocObjs = rtB[rtAllocBytes]-rtA[rtAllocBytes], rtB[rtAllocObjs]-rtA[rtAllocObjs]
				ph.heapMax = max(ph.heapMax, rtB[rtHeapBytes])
				tr.reported("core.run", id, []Span{
					{Name: "smt.solve", DurNS: int64(rep.Stats.Solver.SolveTime)},
					{Name: "smt.blast", DurNS: int64(rep.Stats.Solver.BlastTime)},
				})
			}
			ph.forks += rep.Stats.Forks
			ph.insns += rep.Stats.Instructions
			ph.queries += rep.Stats.Solver.Queries
			ph.samples = append(ph.samples, s)
			ph.unitCPU = append(ph.unitCPU, s.cpuMS)
			ph.unitWall = append(ph.unitWall, s.wallMS)

			tc := time.Now()
			got := countsOf(rep)
			if ref[idx] == nil {
				ref[idx] = &got
			} else if *ref[idx] != got {
				r.fail("%s: counts changed between runs of the same program: %+v vs %+v", u.Name, got, *ref[idx])
				continue
			}
			if err := k.check(u, a, pg, rep); err != nil {
				r.fail("%s: %v", u.Name, err)
			}
			tr.span("check.verify", id, "", tc)
		}
		return ph, w.close(ph)
	}

	if !cfg.trace {
		ph, err := runPhase(cfg.seconds, nil, 0)
		if err != nil {
			return err
		}
		return r.setE2E(ph, float64(len(ph.samples))/ph.cpu.Seconds())
	}

	// Traced run: a traced third between two untraced thirds of the same
	// cycling sequence; the difference in CPU per unit is the tracing
	// overhead, with warm-up and drift split evenly around it.
	third := cfg.seconds / 3
	before, err := runPhase(third, nil, 0)
	if err != nil {
		return err
	}
	base := len(before.samples)
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	traced, err := runPhase(third, cfg.tr, base)
	shares, perr := prof.stop()
	if err = errors.Join(err, perr); err != nil {
		return err
	}
	after, err := runPhase(third, nil, base+len(traced.samples))
	if err != nil {
		return err
	}
	engineLayers(r, ref, traced, cfg.tr)
	r.traceLayers(before.merge(after), traced, shares, cfg.tr)
	return nil
}

// engineLayers fills the per-layer metrics of an engine workload. Exact
// counters are totals over one pass of the seeded pool, so they repeat
// exactly for a seed however many units the time allowed.
func engineLayers(r *report, pool []*counts, traced *phase, tr *Tracer) {
	var t counts
	var foundAt []float64
	for _, c := range pool {
		t.paths += c.paths
		t.bugs += c.bugs
		t.forks += c.forks
		t.insns += c.insns
		t.decode += c.decode
		t.compiled += c.compiled
		t.sbInsns += c.sbInsns
		t.maxLive = max(t.maxLive, c.maxLive)
		t.queries += c.queries
		t.sat += c.sat
		t.unsat += c.unsat
		t.clauses += c.clauses
		t.aux += c.aux
		t.hits += c.hits
		t.misses += c.misses
		t.deadlines += c.deadlines
		if c.bugs > 0 {
			foundAt = append(foundAt, float64(c.foundAt))
		}
	}
	r.layer("core.paths", float64(t.paths), "count")
	r.layer("core.forks", float64(t.forks), "count")
	r.layer("core.instructions", float64(t.insns), "count")
	r.layer("core.max_live", float64(t.maxLive), "count")
	r.layer("rtl.decode_calls", float64(t.decode), "count")
	r.layer("rtl.compiled_units", float64(t.compiled), "count")
	r.layer("rtl.superblock_share", ratio(float64(t.sbInsns), float64(t.insns)), "ratio")
	r.layer("smt.queries", float64(t.queries), "count")
	r.layer("smt.sat", float64(t.sat), "count")
	r.layer("smt.unsat", float64(t.unsat), "count")
	r.layer("smt.clauses", float64(t.clauses), "count")
	r.layer("smt.aux_vars", float64(t.aux), "count")
	r.layer("smt.cache_hit_rate", ratio(float64(t.hits), float64(t.hits+t.misses)), "ratio")
	r.layer("smt.deadlines", float64(t.deadlines), "count")
	r.layer("checker.bugs", float64(t.bugs), "count")
	r.layer("checker.insns_to_bug", mean(foundAt), "count")

	var runCPU, bytes, objs []float64
	for _, s := range traced.samples {
		runCPU = append(runCPU, s.runCPUMS)
		bytes = append(bytes, s.allocBytes)
		objs = append(objs, s.allocObjs)
	}
	n := float64(len(traced.samples))
	r.layer("core.run_cpu_ms", mean(runCPU), "ms")
	r.layer("core.alloc_bytes_per_fork", ratio(sum(bytes), float64(traced.forks)), "bytes")
	r.layer("core.allocs_per_insn", ratio(sum(objs), float64(traced.insns)), "count")
	total, self, _ := tr.layerTimes()
	r.layer("core.self_ms", float64(self["core.run"])/1e6/n, "ms")
	r.layer("core.new_engine_ms", float64(total["core.new_engine"])/1e6/n, "ms")
	r.layer("smt.solve_ms", float64(total["smt.solve"])/1e6/n, "ms")
	r.layer("smt.blast_ms", float64(total["smt.blast"])/1e6/n, "ms")
	r.layer("smt.us_per_query", ratio(float64(total["smt.solve"]+total["smt.blast"])/1e3, float64(traced.queries)), "us")
	r.layer("check.verify_ms", float64(total["check.verify"])/1e6/n, "ms")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ---- independent references ----

// checkLadder: exactly 2^k paths, 2^k-1 forks and two feasibility
// queries per fork, every path exits, and for a seeded concrete input
// exactly one path condition holds and that path's output equals the Go
// reference count.
func checkLadder(u Unit, _ *adl.Arch, _ *prog.Program, r *core.Report) error {
	const paths = 1 << ladderK
	s := r.Stats
	if len(r.Paths) != paths || s.Forks != paths-1 || s.Solver.Queries != 2*(paths-1) {
		return fmt.Errorf("got %d paths, %d forks, %d queries; want %d, %d, %d",
			len(r.Paths), s.Forks, s.Solver.Queries, paths, paths-1, 2*(paths-1))
	}
	if len(r.Bugs) != 0 || len(r.Faults) != 0 {
		return fmt.Errorf("%d bugs, %d faults on a bug-free program", len(r.Bugs), len(r.Faults))
	}
	in := make([]byte, ladderK)
	g := rng(uint64(len(u.Name))*7919+uint64(u.Thresh[0]), u.Name)
	for i := range in {
		in[i] = byte(g.IntN(256))
	}
	env := inputEnv(in)
	matched := 0
	for _, p := range r.Paths {
		if p.Status != core.StatusExit || len(p.Output) != 1 {
			return fmt.Errorf("path %d: status %v, %d output bytes", p.ID, p.Status, len(p.Output))
		}
		ok := true
		for _, c := range p.PathCond {
			if !expr.EvalBool(c, env) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		matched++
		if got, want := byte(expr.Eval(p.Output[0], env)), LadderOutput(u, in); got != want {
			return fmt.Errorf("input % x: output %d, reference %d", in, got, want)
		}
	}
	if matched != 1 {
		return fmt.Errorf("input % x satisfies %d path conditions, want 1", in, matched)
	}
	return nil
}

func inputEnv(in []byte) expr.Env {
	env := expr.Env{}
	for i, b := range in {
		env[fmt.Sprintf("in%d", i)] = uint64(b)
	}
	return env
}

// checkStraight: one path, no forks or queries, and the symbolic output
// evaluated under a fixed input equals the Go checksum.
func checkStraight(u Unit, _ *adl.Arch, _ *prog.Program, r *core.Report) error {
	s := r.Stats
	if len(r.Paths) != 1 || s.Forks != 0 || s.Solver.Queries != 0 {
		return fmt.Errorf("got %d paths, %d forks, %d queries; want 1, 0, 0", len(r.Paths), s.Forks, s.Solver.Queries)
	}
	p := r.Paths[0]
	nb := int(isaBits(u.ISA) / 8)
	if p.Status != core.StatusExit || len(p.Output) != nb {
		return fmt.Errorf("status %v with %d output bytes, want exit with %d", p.Status, len(p.Output), nb)
	}
	in := []byte{byte(u.Table[0]), byte(u.Table[1] >> 3)}
	want := Checksum(u, in)
	env := inputEnv(in)
	for i, o := range p.Output {
		if got := expr.Eval(o, env); got != want>>(8*i)&0xff {
			return fmt.Errorf("output byte %d = %#x, reference %#x", i, got, want>>(8*i)&0xff)
		}
	}
	return nil
}

// checkBughunt: the first bug is the planted one, its witness hashes to
// the target in Go, and the concrete emulator driven by the witness
// reaches the planted fault.
func checkBughunt(u Unit, a *adl.Arch, pg *prog.Program, r *core.Report) error {
	if len(r.Bugs) == 0 {
		return fmt.Errorf("no bug found")
	}
	return checkWitness(u, a, pg, r.Bugs[0].Check, r.Bugs[0].PC, r.Bugs[0].Input)
}

func checkWitness(u Unit, a *adl.Arch, pg *prog.Program, check string, pc uint64, input []byte) error {
	planted, _ := pg.Symbol("planted")
	want := "div-by-zero"
	if u.ISA == "rv32i" {
		want = "out-of-bounds"
	}
	if check != want || pc != planted {
		return fmt.Errorf("bug %s at %#x, want %s at %#x", check, pc, want, planted)
	}
	in := make([]byte, u.Inputs)
	copy(in, input)
	if h := RollingHash(u, in) & 0xffff; h != u.Target {
		return fmt.Errorf("witness % x hashes to %#x, target %#x", in, h, u.Target)
	}
	m := conc.NewMachine(a)
	m.LoadProgram(pg)
	m.Input = in
	stop := m.Run(10000)
	if u.ISA == "rv32i" {
		if stop.Kind != conc.StopExit || m.Mem(oobAddr) != oobMarker {
			return fmt.Errorf("witness replay: %v, planted store not made", stop)
		}
		return nil
	}
	if stop.Kind != conc.StopFault || stop.PC != planted {
		return fmt.Errorf("witness replay: %v, want fault at %#x", stop, planted)
	}
	return nil
}
