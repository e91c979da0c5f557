package core_test

import (
	"testing"

	"repro/arch"
	"repro/internal/checker"
	"repro/internal/core"
)

func concolicEngine(t *testing.T, archName, src string, opts core.Options, checks bool) *core.Engine {
	t.Helper()
	p := build(t, archName, src)
	e := core.NewEngine(arch.MustLoad(archName), p, opts)
	if checks {
		for _, c := range checker.All() {
			e.AddChecker(c)
		}
	}
	return e
}

func TestConcolicDiscoversAllLadderPaths(t *testing.T) {
	// 4-branch ladder: generational search from a zero seed must reach
	// all 16 paths.
	src := `
_start:
	li r3, 0
`
	for i := 0; i < 4; i++ {
		src += "\ttrap 1\n\tli r2, 64\n\tbltu r1, r2, s" + string(rune('a'+i)) +
			"\n\taddi r3, r3, 1\ns" + string(rune('a'+i)) + ":\n"
	}
	src += "\tmov r1, r3\n\ttrap 2\n\ttrap 0\n"
	e := concolicEngine(t, "tiny32", src, core.Options{InputBytes: 4}, false)
	rep, err := e.Concolic(nil, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 16 {
		t.Fatalf("concrete runs = %d, want 16", len(rep.Paths))
	}
	// Every run exits cleanly and the outputs cover counts 0..4.
	seen := map[byte]bool{}
	for _, p := range rep.Paths {
		if p.Status != core.StatusExit {
			t.Errorf("input %v: status %v", p.Input, p.Status)
		}
		if len(p.Output) == 1 {
			seen[p.Output[0]] = true
		}
	}
	for c := byte(0); c <= 4; c++ {
		if !seen[c] {
			t.Errorf("no run produced count %d", c)
		}
	}
}

func TestConcolicSolvesNestedChecks(t *testing.T) {
	// The "magic bytes" check: only 'K','9' reaches the fault. Seeded
	// with zeros, generational search must flip its way in.
	e := concolicEngine(t, "tiny32", `
_start:
	trap 1
	li  r2, 75        // 'K'
	bne r1, r2, out
	trap 1
	li  r2, 57        // '9'
	bne r1, r2, out
	li  r3, 1
	li  r4, 0
	divu r5, r3, r4   // the prize
out:
	trap 0
`, core.Options{InputBytes: 2}, true)
	rep, err := e.Concolic([]byte{0, 0}, 50)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range rep.Paths {
		if p.Status == core.StatusFault && p.Fault == "division by zero" {
			found = true
			if p.Input[0] != 'K' || p.Input[1] != '9' {
				t.Errorf("fault input %v, want K9", p.Input)
			}
		}
	}
	if !found {
		t.Fatalf("concolic search missed the guarded fault; ran %d inputs", len(rep.Paths))
	}
	// The div-by-zero checker must also have fired during the replay.
	hasBug := false
	for _, b := range rep.Bugs {
		if b.Check == "div-by-zero" {
			hasBug = true
		}
	}
	if !hasBug {
		t.Error("checker silent during concolic replay")
	}
}

func TestConcolicCoverageGrows(t *testing.T) {
	e := concolicEngine(t, "tiny32", `
_start:
	trap 1
	li  r2, 10
	bltu r1, r2, small
	li  r1, 1
	trap 2
	trap 0
small:
	li  r1, 0
	trap 2
	trap 0
`, core.Options{InputBytes: 1}, false)
	rep, err := e.Concolic([]byte{200}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 2 {
		t.Fatalf("runs = %d, want 2", len(rep.Paths))
	}
	if rep.Paths[1].NewPCs == 0 {
		t.Error("second input discovered no new code")
	}
	if rep.Solved != 1 {
		t.Errorf("solved inputs = %d, want 1", rep.Solved)
	}
	if rep.Stats.Coverage == 0 {
		t.Error("no coverage recorded")
	}
}

func TestConcolicSymbolicMemoryIndex(t *testing.T) {
	// The replay must concretize table indexing with the *input's* index
	// (not an arbitrary model), or the path would be lost.
	e := concolicEngine(t, "tiny32", `
table:	.byte 5, 6, 7, 8
_start:
	trap 1
	andi r1, r1, 3
	li  r2, table
	add r2, r2, r1
	lbu r3, 0(r2)
	li  r4, 7
	bne r3, r4, out
	trap 2
out:
	trap 0
`, core.Options{InputBytes: 1}, false)
	rep, err := e.Concolic([]byte{0}, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Some input with low bits 2 loads table[2] == 7 and writes output.
	hit := false
	for _, p := range rep.Paths {
		if len(p.Output) > 0 {
			hit = true
			if p.Input[0]&3 != 2 {
				t.Errorf("output path input %v should have index 2", p.Input)
			}
		}
	}
	if !hit {
		t.Error("concolic search never hit table[2]")
	}
}

func TestConcolicOnM16(t *testing.T) {
	// Retargeted concolic execution: same driver, big-endian 16-bit ISA.
	e := concolicEngine(t, "m16", `
_start:
	trap 1
	cmpi g1, 77
	bne  out
	trap 2
out:
	trap 0
`, core.Options{InputBytes: 1}, false)
	rep, err := e.Concolic(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 2 {
		t.Fatalf("runs = %d, want 2", len(rep.Paths))
	}
	var withOut *core.ConcolicPath
	for i := range rep.Paths {
		if len(rep.Paths[i].Output) > 0 {
			withOut = &rep.Paths[i]
		}
	}
	if withOut == nil || withOut.Input[0] != 77 {
		t.Fatalf("solver did not derive the magic byte: %+v", rep.Paths)
	}
}

func TestConcolicCoverageCountsSuperblockInsns(t *testing.T) {
	// A step runs a whole superblock, so coverage must count every
	// instruction executed inside one, not only the step's first PC:
	// concolic runs that reach both exits cover what exploration does.
	src := `
_start:
	trap 1
	li   r2, 10
	li   r3, 11
	li   r4, 12
	addi r3, r3, 1
	bltu r1, r2, low
	li   r1, 1
	trap 2
	trap 0
low:
	li   r1, 0
	trap 2
	trap 0
`
	_, r := analyze(t, "tiny32", src, core.Options{InputBytes: 1}, false)
	e := concolicEngine(t, "tiny32", src, core.Options{InputBytes: 1}, false)
	rep, err := e.Concolic([]byte{200}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Paths) != 2 {
		t.Fatalf("runs = %d, want 2", len(rep.Paths))
	}
	if rep.Stats.Coverage != r.Stats.Coverage {
		t.Errorf("concolic coverage = %d, exploration's = %d", rep.Stats.Coverage, r.Stats.Coverage)
	}
	newPCs := 0
	for _, p := range rep.Paths {
		newPCs += p.NewPCs
	}
	if newPCs != rep.Stats.Coverage {
		t.Errorf("runs' new PCs sum to %d, coverage is %d", newPCs, rep.Stats.Coverage)
	}
	if rep.Stats.WallTime <= 0 {
		t.Error("concolic run not timed")
	}
}
