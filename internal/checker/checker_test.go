package checker_test

import (
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/checker"
	"repro/internal/core"
)

func analyze(t *testing.T, src string, inputBytes int, checks []core.Checker) *core.Report {
	t.Helper()
	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(a, p, core.Options{InputBytes: inputBytes, MaxSteps: 500})
	for _, c := range checks {
		e.AddChecker(c)
	}
	r, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func bugsOf(r *core.Report, check string) []core.Bug {
	var out []core.Bug
	for _, b := range r.Bugs {
		if b.Check == check {
			out = append(out, b)
		}
	}
	return out
}

func TestAllReturnsThreeCheckers(t *testing.T) {
	cs := checker.All()
	if len(cs) != 3 {
		t.Fatalf("All() = %d checkers", len(cs))
	}
	names := map[string]bool{}
	for _, c := range cs {
		names[c.Name()] = true
	}
	for _, want := range []string{"div-by-zero", "out-of-bounds", "tainted-jump"} {
		if !names[want] {
			t.Errorf("missing checker %s", want)
		}
	}
}

func TestDivByZeroConstantDivisor(t *testing.T) {
	// A literally-zero divisor must be reported even with no symbolic
	// input involved.
	r := analyze(t, `
_start:
	li r1, 7
	li r2, 0
	divu r3, r1, r2
	halt
`, 0, []core.Checker{checker.DivByZero{}})
	if len(bugsOf(r, "div-by-zero")) != 1 {
		t.Fatalf("bugs: %v", r.Bugs)
	}
}

func TestDivByZeroGuardSensitive(t *testing.T) {
	// The zero divisor sits behind an intra-instruction guard that can
	// never hold: tiny32 divu checks rb==0 itself; here we additionally
	// pre-constrain the input so the div is safe.
	r := analyze(t, `
_start:
	trap 1
	ori  r1, r1, 1     // force the low bit: divisor != 0
	li   r2, 100
	divu r3, r2, r1
	halt
`, 1, []core.Checker{checker.DivByZero{}})
	if n := len(bugsOf(r, "div-by-zero")); n != 0 {
		t.Fatalf("false positives: %v", r.Bugs)
	}
}

func TestDivByZeroReproducingInput(t *testing.T) {
	r := analyze(t, `
_start:
	trap 1
	addi r1, r1, -5    // divisor = input - 5: zero iff input == 5
	li   r2, 100
	divu r3, r2, r1
	halt
`, 1, []core.Checker{checker.DivByZero{}})
	bugs := bugsOf(r, "div-by-zero")
	if len(bugs) != 1 {
		t.Fatalf("bugs: %v", r.Bugs)
	}
	if len(bugs[0].Input) != 1 || bugs[0].Input[0] != 5 {
		t.Errorf("reproducing input %v, want [5]", bugs[0].Input)
	}
}

func TestOutOfBoundsConstantAddress(t *testing.T) {
	r := analyze(t, `
_start:
	li  r2, 0x7ff0
	lih r2, 0x00ff      // r2 = 0x00ff0000: far outside any region
	lw  r3, 0(r2)
	halt
`, 0, []core.Checker{checker.OutOfBounds{}})
	if len(bugsOf(r, "out-of-bounds")) == 0 {
		t.Fatalf("constant wild read not reported: %v", r.Bugs)
	}
}

func TestOutOfBoundsStackAccessClean(t *testing.T) {
	r := analyze(t, `
_start:
	addi sp, sp, -16
	sw   r1, 0(sp)
	lw   r2, 0(sp)
	halt
`, 0, []core.Checker{checker.OutOfBounds{}})
	if n := len(bugsOf(r, "out-of-bounds")); n != 0 {
		t.Fatalf("stack access flagged: %v", r.Bugs)
	}
}

func TestOutOfBoundsRespectsAddedRegions(t *testing.T) {
	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("t.s", `
_start:
	lih r2, 0x0020     // r2 = 0x00200000
	lw  r3, 0(r2)
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	run := func(extra *core.Region) int {
		e := core.NewEngine(a, p, core.Options{})
		if extra != nil {
			e.Layout = append(e.Layout, *extra)
		}
		e.AddChecker(checker.OutOfBounds{})
		r, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return len(r.Bugs)
	}
	if run(nil) == 0 {
		t.Fatal("access outside regions not reported")
	}
	if run(&core.Region{Lo: 0x200000, Hi: 0x201000, Role: "mmio"}) != 0 {
		t.Fatal("access inside an added region still reported")
	}
}

func TestTaintedJumpInputDependence(t *testing.T) {
	r := analyze(t, `
_start:
	trap 1
	jr r1
`, 1, []core.Checker{checker.TaintedJump{}})
	if len(bugsOf(r, "tainted-jump")) == 0 {
		t.Fatalf("input-controlled jump not reported: %v", r.Bugs)
	}
}

func TestBugDeduplication(t *testing.T) {
	// The division executes on many loop iterations, but one pc-site
	// yields one finding.
	r := analyze(t, `
_start:
	trap 1
	li r4, 3
loop:
	li  r2, 100
	divu r3, r2, r1
	addi r4, r4, -1
	bne r4, r0, loop
	halt
`, 1, []core.Checker{checker.DivByZero{}})
	if n := len(bugsOf(r, "div-by-zero")); n != 1 {
		t.Fatalf("findings = %d, want 1 (deduplicated)", n)
	}
}

func TestBugMetadata(t *testing.T) {
	r := analyze(t, `
_start:
	trap 1
	li   r2, 100
	divu r3, r2, r1
	halt
`, 1, []core.Checker{checker.DivByZero{}})
	bugs := bugsOf(r, "div-by-zero")
	if len(bugs) != 1 {
		t.Fatal(r.Bugs)
	}
	b := bugs[0]
	if b.PC != 8 {
		t.Errorf("bug pc = %#x", b.PC)
	}
	if b.Insn == "" || b.Msg == "" {
		t.Errorf("missing metadata: %+v", b)
	}
	if b.FoundAt <= 0 {
		t.Errorf("FoundAt = %d", b.FoundAt)
	}
	if b.String() == "" {
		t.Error("empty String()")
	}
}
