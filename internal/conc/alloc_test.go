package conc_test

import (
	"testing"

	"repro/arch"
	"repro/internal/conc"
)

// stepLoop is a tiny32 loop that never stops: a load, a store, an add
// and a taken branch per iteration.
const stepLoop = `
_start:
	li r1, 0
	li r2, 0x100
loop:
	lw r3, 0(r2)
	add r1, r1, r3
	sw r1, 4(r2)
	beq r0, r0, loop
`

// TestStepAllocs pins the heap allocations of one Machine.Step. A
// compiled machine, its units cached, allocates nothing; under
// NoCompile each step fetches into the machine's own buffer and decodes
// into a unit that stays on the stack, so only the decoder's two
// allocations reach the heap; a third means the unit or the fetch
// buffer escaped.
func TestStepAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		noCompile bool
		max       float64
	}{
		{"compiled", false, 0},
		{"nocompile", true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := conc.NewMachine(arch.MustLoad("tiny32"))
			m.NoCompile = tc.noCompile
			m.LoadProgram(assemble(t, "tiny32", stepLoop))
			for i := 0; i < 16; i++ { // compile and warm every unit
				if s := m.Step(); s != nil {
					t.Fatalf("warm-up step stopped: %v", s)
				}
			}
			got := testing.AllocsPerRun(200, func() {
				if s := m.Step(); s != nil {
					t.Fatalf("step stopped: %v", s)
				}
			})
			if got > tc.max {
				t.Errorf("%.2f allocs per Step, want at most %v", got, tc.max)
			}
		})
	}
}
