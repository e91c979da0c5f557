package difftest

import (
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/core"
)

// TestDivFaultStopRegression pins the two minimized counterexamples the
// oracle found on its first soak (master seed 42): the symbolic
// evaluator applied register writes placed after a guarded error() in
// the division semantics, while the concrete emulator stops the
// instruction at the first event. The destination register must keep
// its pre-instruction value on the faulting path.
func TestDivFaultStopRegression(t *testing.T) {
	cases := []struct {
		arch    string
		src     string
		input   []byte
		reg     string
		wantReg uint64
	}{
		{
			// rems with a zero divisor: the engine used to clobber r2
			// with srem(0x63, 0) = 0x63... via the suppressed-write path;
			// concretely the fault preserves the input byte in r2.
			arch:    "tiny32",
			src:     "trap 1\nmov r2, r1\nrems r2, r9, r9\ntrap 0\n",
			input:   []byte{0x63},
			reg:     "r2",
			wantReg: 0x63,
		},
		{
			// divu 0/0: the engine used to write the SMT-LIB all-ones
			// result into r2 on the faulting path; concretely r2 stays 0.
			arch:    "tiny64",
			src:     "divu r2, r12, r9\ntrap 0\n",
			reg:     "r2",
			wantReg: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.arch, func(t *testing.T) {
			g, err := newArchGen(c.arch, arch.Source, arch.Source)
			if err != nil {
				t.Fatal(err)
			}
			p, err := g.as.Assemble("regress.s", c.src)
			if err != nil {
				t.Fatal(err)
			}

			// The differential check itself: engine replay and the
			// concrete machine must agree on the whole end state.
			d, skip := g.replayOne(p, c.input, 512, nil, nil, false)
			if skip {
				t.Fatal("comparison unexpectedly skipped")
			}
			if d != "" {
				t.Errorf("engine and emulator diverge: %s", d)
			}

			// And the case must actually exercise the faulting path with
			// the destination register untouched.
			eng := core.NewEngine(g.subj, p, core.Options{InputBytes: len(c.input), MaxSteps: 512})
			rep, err := eng.ReplayConcrete(c.input)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Status != core.StatusFault || !strings.Contains(rep.Fault, "division by zero") {
				t.Fatalf("replay status %v fault %q, want division-by-zero fault", rep.Status, rep.Fault)
			}
			r := g.subj.Reg(c.reg)
			if r == nil {
				t.Fatalf("no register %s", c.reg)
			}
			if got := rep.Regs[r.Num]; got != c.wantReg {
				t.Errorf("%s after faulting division = %#x, want %#x", c.reg, got, c.wantReg)
			}
		})
	}
}
