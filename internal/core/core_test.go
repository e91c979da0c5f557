package core_test

import (
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/prog"
	"repro/internal/smt"
)

func build(t testing.TB, archName, src string) *prog.Program {
	t.Helper()
	a := arch.MustLoad(archName)
	p, err := asm.New(a).Assemble("test.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func analyze(t *testing.T, archName, src string, opts core.Options, checks bool) (*core.Engine, *core.Report) {
	t.Helper()
	p := build(t, archName, src)
	e := core.NewEngine(arch.MustLoad(archName), p, opts)
	if checks {
		for _, c := range checker.All() {
			e.AddChecker(c)
		}
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, r
}

func TestStraightLine(t *testing.T) {
	_, r := analyze(t, "tiny32", `
_start:
	li r1, 5
	addi r1, r1, 3
	halt
`, core.Options{}, false)
	if len(r.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(r.Paths))
	}
	if r.Paths[0].Status != core.StatusHalt {
		t.Errorf("status = %v", r.Paths[0].Status)
	}
	if r.Stats.Instructions != 3 {
		t.Errorf("instructions = %d, want 3", r.Stats.Instructions)
	}
}

func TestSymbolicBranchForksTwoPaths(t *testing.T) {
	// One symbolic input byte, one branch on it: exactly two paths.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1          // r1 = symbolic input byte
	li  r2, 65
	beq r1, r2, yes
	trap 0
yes:
	trap 2
	trap 0
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(r.Paths))
	}
	if r.Stats.Forks == 0 {
		t.Error("no forks recorded")
	}
	// One path wrote a byte, the other did not.
	outs := 0
	for _, p := range r.Paths {
		outs += len(p.Output)
	}
	if outs != 1 {
		t.Errorf("total output bytes = %d, want 1", outs)
	}
}

func TestInfeasibleBranchPruned(t *testing.T) {
	// r1 is concrete 7, so the equality branch is decided statically or
	// at worst pruned by the solver: exactly one path.
	_, r := analyze(t, "tiny32", `
_start:
	li  r1, 7
	li  r2, 9
	beq r1, r2, dead
	halt
dead:
	trap 2
	halt
`, core.Options{}, false)
	if len(r.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(r.Paths))
	}
	if len(r.Paths[0].Output) != 0 {
		t.Error("dead path executed")
	}
}

func TestPathExplosionCount(t *testing.T) {
	// k sequential branches on independent input bytes: 2^k paths.
	src := `
_start:
	li r3, 0
`
	for i := 0; i < 4; i++ {
		src += `
	trap 1
	li r2, 10
	bltu r1, r2, skip` + string(rune('a'+i)) + `
	addi r3, r3, 1
skip` + string(rune('a'+i)) + `:
`
	}
	src += "\thalt\n"
	_, r := analyze(t, "tiny32", src, core.Options{InputBytes: 8}, false)
	if len(r.Paths) != 16 {
		t.Fatalf("paths = %d, want 16", len(r.Paths))
	}
}

func TestCrackmeModelExtraction(t *testing.T) {
	// The program outputs '!' only for input 'G','o'. Find that input by
	// solving the winning path's condition.
	e, r := analyze(t, "tiny32", `
_start:
	trap 1
	mov r4, r1
	trap 1
	mov r5, r1
	li  r2, 71        // 'G'
	bne r4, r2, lose
	li  r2, 111       // 'o'
	bne r5, r2, lose
	li  r1, 33        // '!'
	trap 2
lose:
	trap 0
`, core.Options{InputBytes: 2}, false)
	var win *core.PathResult
	for i := range r.Paths {
		if len(r.Paths[i].Output) > 0 {
			win = &r.Paths[i]
		}
	}
	if win == nil {
		t.Fatal("no winning path found")
	}
	res, err := e.Solver.Check(win.PathCond...)
	if err != nil || res != smt.Sat {
		t.Fatalf("winning path condition not sat: %v %v", res, err)
	}
	input := e.InputFromModel(e.Solver.Model())
	if string(input) != "Go" {
		t.Errorf("solved input %q, want \"Go\"", input)
	}
}

func TestDivByZeroChecker(t *testing.T) {
	// Division by an input-controlled value: the checker must find the
	// zero divisor, and the tiny32 fault path must also be reported.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1
	li   r2, 100
	divu r3, r2, r1
	halt
`, core.Options{InputBytes: 1}, true)
	found := false
	for _, b := range r.Bugs {
		if b.Check == "div-by-zero" {
			found = true
			if len(b.Input) != 1 || b.Input[0] != 0 {
				t.Errorf("reproducing input %v, want [0]", b.Input)
			}
		}
	}
	if !found {
		t.Fatalf("div-by-zero not reported; bugs: %v", r.Bugs)
	}
	// The explicit error() in the description creates a faulting path.
	faults := 0
	for _, p := range r.Paths {
		if p.Status == core.StatusFault {
			faults++
		}
	}
	if faults != 1 {
		t.Errorf("fault paths = %d, want 1", faults)
	}
}

func TestDivSafeNoFalsePositive(t *testing.T) {
	// The guard makes the zero divisor unreachable: no bug.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1
	li   r2, 0
	beq  r1, r2, skip
	li   r2, 100
	divu r3, r2, r1
skip:
	halt
`, core.Options{InputBytes: 1}, true)
	for _, b := range r.Bugs {
		if b.Check == "div-by-zero" {
			t.Fatalf("false positive: %v", b)
		}
	}
}

func TestOutOfBoundsChecker(t *testing.T) {
	// Input indexes an 8-byte table without a bounds check: the checker
	// must find an index that escapes every region.
	_, r := analyze(t, "tiny32", `
table:	.byte 1, 2, 3, 4, 5, 6, 7, 8
_start:
	trap 1           // index
	li  r2, table
	add r2, r2, r1
	lbu r3, 0(r2)
	halt
`, core.Options{InputBytes: 1}, true)
	found := false
	for _, b := range r.Bugs {
		if b.Check == "out-of-bounds" {
			found = true
		}
	}
	if !found {
		t.Fatalf("out-of-bounds not reported; bugs: %v", r.Bugs)
	}
}

func TestOutOfBoundsCheckedAccessClean(t *testing.T) {
	// Same table with a proper bounds check: no finding.
	_, r := analyze(t, "tiny32", `
table:	.byte 1, 2, 3, 4, 5, 6, 7, 8
_start:
	trap 1
	li   r2, 8
	bgeu r1, r2, done
	li   r2, table
	add  r2, r2, r1
	lbu  r3, 0(r2)
done:
	halt
`, core.Options{InputBytes: 1}, true)
	for _, b := range r.Bugs {
		if b.Check == "out-of-bounds" {
			t.Fatalf("false positive: %v", b)
		}
	}
}

func TestLoopWithSymbolicBound(t *testing.T) {
	// Loop i = 0..n-1 where n is one input byte, capped at 255: paths =
	// one per loop count up to the step budget; keep the budget small.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1          // n
	li r2, 0        // i
loop:
	bgeu r2, r1, done
	addi r2, r2, 1
	jmp loop
done:
	halt
`, core.Options{InputBytes: 1, MaxSteps: 100, MaxPaths: 50}, false)
	if len(r.Paths) < 10 {
		t.Fatalf("paths = %d, want many (one per feasible loop count)", len(r.Paths))
	}
}

func TestMemoryStoreLoadSymbolic(t *testing.T) {
	// Store a symbolic byte, load it back, branch on it: two paths.
	_, r := analyze(t, "tiny32", `
buf:	.word 0
_start:
	trap 1
	li  r2, buf
	sb  r1, 0(r2)
	lbu r3, 0(r2)
	li  r4, 5
	beq r3, r4, five
	halt
five:
	trap 2
	halt
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(r.Paths))
	}
}

func TestStrategiesExploreSamePaths(t *testing.T) {
	src := `
_start:
	trap 1
	li r2, 50
	bltu r1, r2, a
	trap 1
	li r2, 60
	bltu r1, r2, a
	halt
a:	halt
`
	counts := map[core.Strategy]int{}
	for _, s := range []core.Strategy{core.DFS, core.BFS, core.Random, core.Coverage} {
		_, r := analyze(t, "tiny32", src, core.Options{InputBytes: 2, Strategy: s}, false)
		counts[s] = len(r.Paths)
	}
	for s, n := range counts {
		if n != counts[core.DFS] {
			t.Errorf("strategy %v found %d paths, DFS found %d", s, n, counts[core.DFS])
		}
	}
}

func TestJumpTableEnumeration(t *testing.T) {
	// jr to a computed target: the engine must enumerate feasible targets
	// via the solver and the tainted-jump checker must notice the input
	// dependence.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1
	li   r2, 1
	bgeu r1, r2, one   // constrain input to {0,1}: two targets
	li   r3, a
	jr   r3            // constant register target: fine
one:
	li   r3, b
	jr   r3
a:	halt
b:	halt
`, core.Options{InputBytes: 1}, true)
	if len(r.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(r.Paths))
	}
}

func TestTaintedJumpChecker(t *testing.T) {
	_, r := analyze(t, "tiny32", `
_start:
	trap 1          // fully input-controlled jump target
	sll r1, r1, r0  // no-op keeping r1 symbolic
	jr  r1
`, core.Options{InputBytes: 1}, true)
	found := false
	for _, b := range r.Bugs {
		if b.Check == "tainted-jump" {
			found = true
		}
	}
	if !found {
		t.Fatalf("tainted-jump not reported; bugs %v", r.Bugs)
	}
}

func TestStepBudget(t *testing.T) {
	_, r := analyze(t, "tiny32", `
_start:
	jmp _start
`, core.Options{MaxSteps: 25}, false)
	if len(r.Paths) != 1 || r.Paths[0].Status != core.StatusSteps {
		t.Fatalf("paths %v", r.Paths)
	}
	if r.Paths[0].Steps != 25 {
		t.Errorf("steps = %d, want 25", r.Paths[0].Steps)
	}
}

// TestLoopDecodesEachAddressOnce: the shared compile cache decodes and
// compiles every executed address exactly once, however often the loop
// body runs.
func TestLoopDecodesEachAddressOnce(t *testing.T) {
	src := `
_start:
	li r1, 10
loop:
	addi r1, r1, -1
	bne r1, r0, loop
	halt
`
	_, r := analyze(t, "tiny32", src, core.Options{}, false)
	st := r.Stats
	if st.DecodeCalls != st.CompiledUnits || st.DecodeCalls != int64(st.Coverage) {
		t.Errorf("decodes %d, compiled units %d, distinct addresses %d: want all equal",
			st.DecodeCalls, st.CompiledUnits, st.Coverage)
	}
	if st.Instructions <= st.DecodeCalls {
		t.Errorf("instructions %d <= decodes %d: the loop body did not repeat", st.Instructions, st.DecodeCalls)
	}
}

func TestOutputExprsUsable(t *testing.T) {
	// The echoed output byte must equal the input variable.
	e, r := analyze(t, "tiny32", `
_start:
	trap 1
	trap 2
	trap 0
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 1 || len(r.Paths[0].Output) != 1 {
		t.Fatalf("unexpected paths %v", r.Paths)
	}
	out := r.Paths[0].Output[0]
	// out == 'x' must force in0 == 'x'.
	res, err := e.Solver.Check(append(r.Paths[0].PathCond, e.B.Eq(out, e.B.Const(8, 'x')))...)
	if err != nil || res != smt.Sat {
		t.Fatalf("echo constraint unsat: %v %v", res, err)
	}
	if got := e.Solver.Model()["in0"]; got != 'x' {
		t.Errorf("in0 = %q, want 'x'", got)
	}
	_ = expr.Env{}
}
