package core_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/smt"
)

func TestInputEOFAfterBudget(t *testing.T) {
	// With one symbolic byte, the second read returns the all-ones EOF
	// marker; the program distinguishes the two reads.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1
	mov  r4, r1
	trap 1          // EOF: r1 = 0xffffffff
	li   r5, -1
	bne  r1, r5, weird
	trap 0
weird:
	trap 2
	trap 0
`, core.Options{InputBytes: 1}, false)
	// The EOF value is concrete, so the bne is decided: one path, and it
	// must be the non-weird one.
	if len(r.Paths) != 1 {
		t.Fatalf("paths = %d, want 1", len(r.Paths))
	}
	if len(r.Paths[0].Output) != 0 {
		t.Error("EOF marker not delivered as all-ones")
	}
}

func TestSelfModifyingCode(t *testing.T) {
	// The program overwrites an upcoming instruction with "li r5, 1"
	// before reaching it; the compile cache must not serve the stale
	// decode.
	_, r := analyze(t, "tiny32", `
_start:
	lih r1, 0x2750     // encoding of "li r5, 1" == 0x27500001
	ori r1, r1, 0x0001
	li  r2, patchme
	sw  r1, 0(r2)
patchme:
	li  r5, 2          // will be overwritten before execution... no:
	halt
`, core.Options{}, false)
	// patchme executes AFTER the store, so the patched bytes must decode.
	if len(r.Paths) != 1 || r.Paths[0].Status != core.StatusHalt {
		t.Fatalf("paths %+v", r.Paths)
	}
}

func TestSymbolicCodeBytesFault(t *testing.T) {
	// Writing a symbolic byte over an instruction and then executing it
	// must be a decode fault, not a crash.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1
	li  r2, tgt
	sb  r1, 0(r2)
tgt:
	halt
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 1 || r.Paths[0].Status != core.StatusDecode {
		t.Fatalf("paths %+v", r.Paths)
	}
	if !strings.Contains(r.Paths[0].Fault, "symbolic instruction bytes") {
		t.Errorf("fault %q", r.Paths[0].Fault)
	}
}

func TestMaxPathsBudget(t *testing.T) {
	src := `
_start:
`
	for i := 0; i < 8; i++ {
		// A skipped increment makes the two branch sides genuinely differ.
		src += "\ttrap 1\n\tli r2, 64\n\tbltu r1, r2, s" + string(rune('a'+i)) +
			"\n\taddi r3, r3, 1\ns" + string(rune('a'+i)) + ":\n"
	}
	src += "\ttrap 0\n"
	_, r := analyze(t, "tiny32", src, core.Options{InputBytes: 8, MaxPaths: 5}, false)
	if len(r.Paths) > 5 {
		t.Errorf("paths = %d exceeds budget 5", len(r.Paths))
	}
	if r.Stats.StatesKilled == 0 {
		t.Error("no states reported killed under the path budget")
	}
}

func TestSolverBudgetDegradesGracefully(t *testing.T) {
	// A hard multiplicative constraint with a tiny conflict budget: the
	// engine must keep exploring (treating unknown as feasible).
	_, r := analyze(t, "tiny32", `
_start:
	trap 1
	mov r4, r1
	trap 1
	mov r5, r1
	mul r6, r4, r5
	li  r2, 143       // 11*13: forces real factoring work
	bne r6, r2, out
	trap 2
out:
	trap 0
`, core.Options{InputBytes: 2, MaxSolverConflicts: 1}, false)
	if len(r.Paths) == 0 {
		t.Fatal("no paths explored under solver budget")
	}
}

func TestRV32ISymbolicLoop(t *testing.T) {
	_, r := analyze(t, "rv32i", `
_start:
	addi a7, zero, 1
	ecall              # a0 = n
	andi a0, a0, 7
	addi t0, zero, 0   # i
	addi t1, zero, 0   # sum
loop:
	bgeu t0, a0, done
	add  t1, t1, t0
	addi t0, t0, 1
	jal  zero, loop
done:
	addi a0, t1, 0
	addi a7, zero, 2
	ecall
	addi a7, zero, 0
	ecall
`, core.Options{InputBytes: 1, MaxSteps: 200}, false)
	// n in 0..7: eight exit paths, outputs 0,0,1,3,6,10,15,21.
	if len(r.Paths) != 8 {
		t.Fatalf("paths = %d, want 8", len(r.Paths))
	}
}

func TestRV32IZeroRegisterInvariant(t *testing.T) {
	// Writes to x0 are discarded: storing into zero must not corrupt it.
	e, r := analyze(t, "rv32i", `
_start:
	addi a7, zero, 1
	ecall
	addi zero, a0, 1   # write to x0: discarded
	addi a0, zero, 0   # a0 = x0 = 0
	addi a7, zero, 2
	ecall              # output must be constant 0
	addi a7, zero, 0
	ecall
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 1 {
		t.Fatalf("paths = %d", len(r.Paths))
	}
	out := r.Paths[0].Output[0]
	res, err := e.Solver.Check(append(r.Paths[0].PathCond, e.B.Ne(out, e.B.Const(8, 0)))...)
	if err != nil || res != smt.Unsat {
		t.Fatalf("x0 corrupted: output can differ from 0 (%v %v)", res, err)
	}
}

func TestM16SymbolicFlags(t *testing.T) {
	// Branch on flags derived from a symbolic comparison.
	_, r := analyze(t, "m16", `
_start:
	trap 1
	cmpi g1, 10
	blt  neg          ; signed less-than via n^v
	trap 0
neg:
	trap 2
	trap 0
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 2 {
		t.Fatalf("paths = %d, want 2 (flag branch must be symbolic)", len(r.Paths))
	}
}

func TestM16CallStackSymbolic(t *testing.T) {
	// Recursive-ish call through the stack with a symbolic argument.
	_, r := analyze(t, "m16", `
_start:
	trap 1
	call inc
	call inc
	trap 2
	trap 0
inc:
	addi g1, 1
	ret
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 1 {
		t.Fatalf("paths = %d", len(r.Paths))
	}
	if len(r.Paths[0].Output) != 1 {
		t.Fatal("no output")
	}
}

func TestPathConditionsAreSMTExportable(t *testing.T) {
	e, r := analyze(t, "tiny32", `
_start:
	trap 1
	li r2, 50
	bltu r1, r2, a
	trap 0
a:	trap 0
`, core.Options{InputBytes: 1}, false)
	for _, p := range r.Paths {
		if len(p.PathCond) == 0 {
			continue
		}
		script := expr.SMTLIB2String(p.PathCond)
		if !strings.Contains(script, "(check-sat)") || !strings.Contains(script, "in0") {
			t.Errorf("bad SMT-LIB export:\n%s", script)
		}
	}
	_ = e
}

func TestDeterministicRuns(t *testing.T) {
	src := `
_start:
	trap 1
	li r2, 7
	bltu r1, r2, a
	trap 0
a:	trap 2
	trap 0
`
	_, r1 := analyze(t, "tiny32", src, core.Options{InputBytes: 1, Strategy: core.Random, Seed: 5}, false)
	_, r2 := analyze(t, "tiny32", src, core.Options{InputBytes: 1, Strategy: core.Random, Seed: 5}, false)
	if len(r1.Paths) != len(r2.Paths) || r1.Stats.Instructions != r2.Stats.Instructions {
		t.Error("same seed produced different explorations")
	}
}

func TestTiny64SymbolicExecution(t *testing.T) {
	// 64-bit machine: symbolic branch over a 64-bit comparison.
	e, r := analyze(t, "tiny64", `
_start:
	trap 1
	li   r2, 100
	mul  r3, r1, r2     ; 64-bit product of a symbolic byte
	li   r4, 10000
	bltu r3, r4, small  ; symbolic: in*100 < 10000 iff in < 100
	trap 0
small:
	trap 2
	trap 0
`, core.Options{InputBytes: 1}, false)
	if len(r.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(r.Paths))
	}
	_ = e
}

func TestTimeBudget(t *testing.T) {
	// An unbounded symbolic loop with a tiny wall-clock budget must stop
	// promptly rather than exhausting the path budget.
	_, r := analyze(t, "tiny32", `
_start:
	trap 1
loop:
	addi r1, r1, 1
	li   r2, 0
	bne  r1, r2, loop
	trap 0
`, core.Options{InputBytes: 1, MaxSteps: 1 << 30, TimeBudget: 20 * time.Millisecond}, false)
	if r.Stats.WallTime > 2*time.Second {
		t.Errorf("run took %v despite a 20ms budget", r.Stats.WallTime)
	}
	_ = r
}
