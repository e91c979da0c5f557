// Command emu runs a program image on the ADL-generated concrete
// emulator. Input bytes for the read trap come from -input; output bytes
// are printed on exit.
//
// Usage:
//
//	emu [-input <string>] [-steps N] [-trace] [-no-compile] [-cover] [-cover-out f] <image.rimg>
//
// Execution runs through the semantics compiler and superblock cache by
// default (docs/compile.md); -no-compile interprets every instruction.
//
// -cover and -cover-out measure semantic coverage of the loaded ADL on
// the concrete layer (docs/coverage.md); they are the instrument flags
// the other commands share (table in docs/observability.md).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/arch"
	"repro/internal/cli"
	"repro/internal/conc"
	"repro/internal/decoder"
	"repro/internal/prog"
)

func main() {
	input := flag.String("input", "", "bytes fed to the read trap")
	steps := flag.Int64("steps", 1_000_000, "instruction budget")
	trace := flag.Bool("trace", false, "print each executed instruction")
	noCompile := flag.Bool("no-compile", false, "disable the semantics compiler and superblocks (docs/compile.md)")
	inst := cli.Register(flag.CommandLine, cli.Cover)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: emu [-input s] [-steps n] [-trace] <image.rimg>")
		os.Exit(2)
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	p, err := prog.Unmarshal(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	a, err := arch.Load(p.Arch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := inst.Arm(p.Arch); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := conc.NewMachine(a)
	m.NoCompile = *noCompile
	m.SetCover(inst.Cover.Bind(a))
	m.LoadProgram(p)
	m.Input = []byte(*input)

	var stop conc.Stop
	if *trace {
		d := decoder.New(a)
		for i := int64(0); ; i++ {
			if i >= *steps {
				stop = conc.Stop{Kind: conc.StopSteps, PC: m.PC()}
				break
			}
			pc := m.PC()
			buf := make([]byte, a.MaxInsnBytes())
			for j := range buf {
				buf[j] = m.Mem(pc + uint64(j))
			}
			if dec, err := d.Decode(buf); err == nil {
				fmt.Printf("%#08x: %s\n", pc, decoder.Disasm(dec, pc))
			}
			if s := m.Step(); s != nil {
				stop = *s
				break
			}
		}
	} else {
		stop = m.Run(*steps)
	}

	if err := inst.Finish(nil); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("stopped: %v after %d instructions\n", stop, m.Steps)
	if len(m.Output) > 0 {
		fmt.Printf("output: %q  (bytes % x)\n", m.Output, m.Output)
	}
}
