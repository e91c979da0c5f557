package core_test

import (
	"fmt"
	"testing"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/conc"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/harness"
	"repro/internal/prog"
	"repro/internal/smt"
)

// exploreWith runs one engine exploration with the standard checkers
// attached.
func exploreWith(t testing.TB, archName, src string, opts core.Options) *core.Report {
	p := build(t, archName, src)
	e := core.NewEngine(arch.MustLoad(archName), p, opts)
	for _, c := range checker.All() {
		e.AddChecker(c)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// stopStatus maps the concrete machine's stop reasons onto the path
// statuses they correspond to.
var stopStatus = map[conc.StopKind]core.Status{
	conc.StopHalt:   core.StatusHalt,
	conc.StopExit:   core.StatusExit,
	conc.StopFault:  core.StatusFault,
	conc.StopSteps:  core.StatusSteps,
	conc.StopDecode: core.StatusDecode,
}

// runInterpreted runs p on the ADL's concrete machine with compiled
// semantics off — the RTL interpreter is the reference — from the
// engine's initial stack pointer and under its step budget.
func runInterpreted(e *core.Engine, p *prog.Program, input []byte) (*conc.Machine, conc.Stop) {
	m := conc.NewMachine(e.Arch)
	m.NoCompile = true
	m.LoadProgram(p)
	m.Input = input
	if e.Arch.SP != nil {
		m.WriteReg(e.Arch.SP, e.Opts.StackBase)
	}
	return m, m.Run(e.Opts.MaxSteps)
}

// checkPathsInterpreted solves each explored path's condition for a
// concrete input, runs that input through the interpreter and requires
// the same status, end pc, step count and output.
func checkPathsInterpreted(t *testing.T, e *core.Engine, p *prog.Program, r *core.Report) {
	t.Helper()
	for _, path := range r.Paths {
		res, err := e.Solver.Check(path.PathCond...)
		if err != nil || res != smt.Sat {
			t.Errorf("path %d: condition not sat (%v %v)", path.ID, res, err)
			continue
		}
		model := e.Solver.Model()
		input := make([]byte, e.Opts.InputBytes)
		for i := range input {
			input[i] = byte(model[fmt.Sprintf("in%d", i)])
		}
		var want []byte
		for _, o := range path.Output {
			want = append(want, byte(expr.Eval(o, model)))
		}
		m, stop := runInterpreted(e, p, input)
		if st, ok := stopStatus[stop.Kind]; !ok || st != path.Status {
			t.Errorf("path %d input %v: status %v, interpreted %v", path.ID, input, path.Status, stop)
			continue
		}
		// On the step limit the engine reports the last executed
		// instruction, the machine the next fetch address.
		if path.Status != core.StatusSteps && path.EndPC != stop.PC {
			t.Errorf("path %d input %v: end pc %#x, interpreted %#x", path.ID, input, path.EndPC, stop.PC)
		}
		if path.Steps != m.Steps {
			t.Errorf("path %d input %v: steps %d, interpreted %d", path.ID, input, path.Steps, m.Steps)
		}
		if string(m.Output) != string(want) {
			t.Errorf("path %d input %v: output %x, interpreted %x", path.ID, input, want, m.Output)
		}
	}
}

// TestCompiledMatchesInterpretedExploration checks, across all four
// ADLs, that every path compiled exploration reports on branch-heavy and
// byte-matching programs is the one the RTL interpreter runs for that
// path's input: same status, end pc, step count and output.
func TestCompiledMatchesInterpretedExploration(t *testing.T) {
	// tiny64 is outside the harness generators; a hand-written branch
	// ladder over two input bytes keeps all four ADLs covered.
	tiny64Ladder := `
_start:
	li r3, 64
	li r2, 0
	trap 1
	bltu r1, r3, skip1
	addi r2, r2, 1
skip1:
	trap 1
	bltu r1, r3, skip2
	addi r2, r2, 2
skip2:
	mov r1, r2
	trap 2
	trap 0
`
	type tcase struct {
		name string
		src  string
		in   int
	}
	for _, archName := range arch.Names() {
		var cases []tcase
		if archName == "tiny64" {
			cases = []tcase{{"ladder", tiny64Ladder, 2}}
		} else {
			cases = []tcase{
				{"ladder", harness.BranchLadder(archName, 5), 5},
				{"needle", harness.Needle(archName, []byte{7, 3}), 4},
			}
		}
		for _, tc := range cases {
			t.Run(archName+"/"+tc.name, func(t *testing.T) {
				p := build(t, archName, tc.src)
				e := core.NewEngine(arch.MustLoad(archName), p, core.Options{InputBytes: tc.in, MaxPaths: 5000})
				for _, c := range checker.All() {
					e.AddChecker(c)
				}
				r, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if len(r.Paths) < 2 {
					t.Fatalf("only %d paths explored", len(r.Paths))
				}
				checkPathsInterpreted(t, e, p, r)
				if r.Stats.CompiledUnits == 0 {
					t.Error("run compiled no units")
				}
			})
		}
	}
}

// TestCompiledSelfModifyingCode pins the per-state cache guard: a state
// that overwrites upcoming instruction bytes must execute the new bytes
// (via the uncached interpreted entry), not a stale compiled unit. The
// program patches an already-executed instruction and loops back over
// it; r1 ends at 99 only if the patch took effect.
func TestCompiledSelfModifyingCode(t *testing.T) {
	src := `
_start:
	li r3, src
	lw r2, 0(r3)
	li r4, patch
	li r5, 0
again:
patch:
	addi r1, r0, 7
	bne r5, r0, done
	addi r5, r5, 1
	sw r2, 0(r4)
	jmp again
done:
	mov r1, r1
	halt
src:
	addi r1, r0, 99
`
	a := arch.MustLoad("tiny32")
	p := build(t, "tiny32", src)
	e := core.NewEngine(a, p, core.Options{MaxPaths: 10, CaptureEndState: true})
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Paths) != 1 || r.Paths[0].Status != core.StatusHalt {
		t.Fatalf("paths %v, want one halted path", r.Paths)
	}
	path := r.Paths[0]
	if r1 := path.End.EvalRegs(expr.Env{})[a.Reg("r1").Num]; r1 != 99 {
		t.Errorf("r1 = %d, want 99 (the patched instruction did not run)", r1)
	}
	// Equal step counts prove the engine executed the patched (not the
	// stale) loop exit on the second pass, as the interpreter does.
	m, stop := runInterpreted(e, p, nil)
	if stop.Kind != conc.StopHalt || path.Steps != m.Steps {
		t.Errorf("steps %d, interpreted %d (%v)", path.Steps, m.Steps, stop)
	}
	// The patched address is decoded again from the state's own bytes,
	// never compiled into the shared cache.
	if r.Stats.DecodeCalls <= r.Stats.CompiledUnits {
		t.Errorf("decodes %d, compiled units %d: the self-modified window was not decoded uncached",
			r.Stats.DecodeCalls, r.Stats.CompiledUnits)
	}
}

// TestCompiledSuperblocksUsed checks the superblock layer actually
// engages on straightline-heavy code.
func TestCompiledSuperblocksUsed(t *testing.T) {
	r := exploreWith(t, "tiny32", harness.Throughput("checksum", 30),
		core.Options{MaxPaths: 10, MaxSteps: 1 << 20})
	if r.Stats.Superblocks == 0 || r.Stats.SuperblockHits == 0 || r.Stats.SuperblockInsns == 0 {
		t.Fatalf("superblocks unused: %+v", r.Stats)
	}
	if r.Stats.SuperblockInsns*2 < r.Stats.Instructions {
		t.Errorf("only %d of %d instructions in superblocks",
			r.Stats.SuperblockInsns, r.Stats.Instructions)
	}
}

// TestCompiledParallelDeterminism checks that workers 1, 2 and 4 — all
// sharing one compile cache — explore the same path set as the serial
// run. Under -race this doubles as the data-race workout for the shared
// cache.
func TestCompiledParallelDeterminism(t *testing.T) {
	src := harness.BranchLadder("tiny32", 7)
	ref := exploreWith(t, "tiny32", src, core.Options{InputBytes: 7, MaxPaths: 5000})
	for _, workers := range []int{1, 2, 4} {
		r := exploreWith(t, "tiny32", src,
			core.Options{InputBytes: 7, MaxPaths: 5000, Workers: workers})
		if !equalStrings(pathKeys(r), pathKeys(ref)) {
			t.Errorf("workers=%d: path multiset differs from the serial run", workers)
		}
		if r.Stats.CompiledUnits == 0 {
			t.Errorf("workers=%d: no compiled units", workers)
		}
	}
}

// BenchmarkSelfModifyingCode measures the self-modified-window
// fallback: a loop that re-patches its own body every iteration, so one
// instruction in four runs from an uncached, interpreted entry.
func BenchmarkSelfModifyingCode(b *testing.B) {
	src := `
_start:
	li r3, src
	lw r2, 0(r3)
	li r4, patch
	li r5, 2000
loop:
	sw r2, 0(r4)
patch:
	addi r1, r1, 1
	addi r5, r5, -1
	bne r5, r0, loop
	halt
src:
	addi r1, r1, 2
`
	a := arch.MustLoad("tiny32")
	p := build(b, "tiny32", src)
	var insns int64
	for b.Loop() {
		r, err := core.NewEngine(a, p, core.Options{MaxPaths: 1, MaxSteps: 1 << 20}).Run()
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Paths) != 1 || r.Paths[0].Status != core.StatusHalt {
			b.Fatalf("paths %v, want one halted path", r.Paths)
		}
		insns = r.Stats.Instructions
	}
	b.ReportMetric(float64(insns)*float64(b.N)/b.Elapsed().Seconds(), "insns/s")
}
