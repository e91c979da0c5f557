package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// isas are the three contrasting ISAs every engine workload covers:
// 32-bit little-endian load/store, RISC-V with scattered immediates, and
// 16-bit big-endian flag-based CISC.
var isas = []string{"tiny32", "rv32i", "m16"}

func isaBits(isa string) uint {
	if isa == "m16" {
		return 16
	}
	return 32
}

func mask(bits uint) uint64 { return 1<<bits - 1 }

// Unit is one generated analysis unit: an assembly program plus every
// parameter the independent references need to check the engine's
// answer without asking the engine.
type Unit struct {
	Name string
	ISA  string
	Kind string // ladder | straightline | bughunt
	Src  string

	Inputs int // symbolic input bytes the engine provides

	// ladder: one branch per input byte against Thresh[i]; before the
	// first fork, a loop writes Words buffer words, counting from Init in
	// steps of Mul.
	Thresh []uint8
	Words  int

	// straightline: acc = (in0 | in1<<8) ^ Init, then Passes times over
	// Table: acc = acc*Mul ^ t.
	Table  []uint64
	Passes int
	Init   uint64

	// bughunt: h = Init; for each input byte c: h = h*Mul + c; the
	// planted fault sits behind h mod 2^16 == Target.
	Mul    uint64
	Target uint64
}

// rng returns the generator for one workload stream of a seed. Streams
// are independent, so adding a workload never changes another's inputs.
func rng(seed uint64, stream string) *rand.Rand {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// strata returns n values spread evenly over [lo, hi) with a seeded
// jitter inside each stratum. Workload cost depends on these sizes, so
// stratifying keeps a run's cost distribution nearly the same for every
// seed while the programs themselves differ.
func strata(r *rand.Rand, n, lo, hi int) []int {
	out := make([]int, n)
	w := (hi - lo) / n
	for i := range out {
		out[i] = lo + i*w + r.IntN(w)
	}
	return out
}

// ---- ladder ----

const ladderK = 8 // branches per program: 2^8 paths, 510 queries

// LadderPool returns perISA parser-shaped programs per ISA: each writes
// a seeded-size buffer and then branches once per input byte.
func LadderPool(seed uint64, perISA int) []Unit {
	r := rng(seed, "ladder")
	var out []Unit
	for _, isa := range isas {
		for j, words := range strata(r, perISA, 128, 256) {
			out = append(out, ladderUnit(r, fmt.Sprintf("ladder-%s-%d", isa, j), isa, ladderK, words, r.IntN(2)))
		}
	}
	return out
}

// ladderUnit draws one ladder program with k branches. Every threshold
// has the given parity, so two streams of opposite parity never share a
// solver query.
func ladderUnit(r *rand.Rand, name, isa string, k, words, parity int) Unit {
	th := make([]uint8, k)
	for i := range th {
		th[i] = uint8(16 + 2*r.IntN(112) + parity) // in [16, 240): both sides feasible
	}
	u := Unit{Name: name, ISA: isa, Kind: "ladder", Inputs: k, Thresh: th, Words: words,
		Init: uint64(r.IntN(1000)), Mul: uint64(1 + r.IntN(100))}
	u.Src = ladderSrc(u)
	return u
}

func ladderSrc(u Unit) string {
	var b strings.Builder
	w := func(format string, a ...any) { fmt.Fprintf(&b, format+"\n", a...) }
	w("_start:")
	switch u.ISA {
	case "tiny32":
		w("\tli r4, buf\n\tli r5, %d\n\tli r6, %d\n\tli r7, 0", u.Words, u.Init)
		w("fill:\n\tsw r6, 0(r4)\n\taddi r4, r4, 4\n\taddi r6, r6, %d\n\taddi r5, r5, -1\n\tbne r5, r7, fill", u.Mul)
		w("\tli r3, 0")
		for i, t := range u.Thresh {
			w("\ttrap 1\n\tli r2, %d\n\tbltu r1, r2, skip%d\n\taddi r3, r3, 1\nskip%d:", t, i, i)
		}
		w("\tmov r1, r3\n\ttrap 2\n\ttrap 0")
		w("buf:\t.space %d", 4*u.Words)
	case "rv32i":
		w("\tlui s4, hi20(buf)\n\taddi s4, s4, lo12(buf)\n\taddi s5, zero, %d\n\taddi s6, zero, %d", u.Words, u.Init)
		w("fill:\n\tsw s6, 0(s4)\n\taddi s4, s4, 4\n\taddi s6, s6, %d\n\taddi s5, s5, -1\n\tbne s5, zero, fill", u.Mul)
		w("\taddi s3, zero, 0")
		for i, t := range u.Thresh {
			w("\taddi a7, zero, 1\n\tecall\n\taddi t1, zero, %d\n\tbltu a0, t1, skip%d\n\taddi s3, s3, 1\nskip%d:", t, i, i)
		}
		w("\taddi a0, s3, 0\n\taddi a7, zero, 2\n\tecall\n\taddi a7, zero, 0\n\tecall")
		w("buf:\t.space %d", 4*u.Words)
	case "m16":
		w("\tldi g4, buf\n\tldi g5, %d\n\tldi g2, %d", u.Words, u.Init)
		w("fill:\n\tstx g2, 0(g4)\n\taddi g4, 2\n\taddi g2, %d\n\taddi g5, -1\n\tbne fill", u.Mul)
		w("\tldi g3, 0")
		for i, t := range u.Thresh {
			w("\ttrap 1\n\tcmpi g1, %d\n\tbcs skip%d\n\taddi g3, 1\nskip%d:", t, i, i)
		}
		w("\tmov g1, g3\n\ttrap 2\n\ttrap 0")
		w("buf:\t.space %d", 2*u.Words)
	}
	return b.String()
}

// LadderOutput is the reference for one ladder path: the program
// outputs how many input bytes reached their threshold.
func LadderOutput(u Unit, in []byte) byte {
	n := 0
	for i, t := range u.Thresh {
		if i < len(in) && in[i] >= t {
			n++
		}
	}
	return byte(n)
}

// ---- straightline ----

const (
	straightInputs = 2
	straightSteps  = 5000 // table entries folded per program (~32k insns)
)

// StraightPool returns perISA single-path checksum programs per ISA.
func StraightPool(seed uint64, perISA int) []Unit {
	r := rng(seed, "straightline")
	var out []Unit
	for _, isa := range isas {
		m := mask(isaBits(isa))
		for j, n := range strata(r, perISA, 40, 88) {
			tab := make([]uint64, n)
			for i := range tab {
				tab[i] = r.Uint64() & m
			}
			u := Unit{Name: fmt.Sprintf("straightline-%s-%d", isa, j), ISA: isa, Kind: "straightline",
				Inputs: straightInputs, Table: tab, Passes: straightSteps / n,
				Init: r.Uint64() & m, Mul: (r.Uint64() | 1) & m}
			u.Src = straightSrc(u)
			out = append(out, u)
		}
	}
	return out
}

// Checksum is the Go reference of the straightline program.
func Checksum(u Unit, in []byte) uint64 {
	m := mask(isaBits(u.ISA))
	acc := (uint64(in[0]) | uint64(in[1])<<8) ^ u.Init
	for p := 0; p < u.Passes; p++ {
		for _, t := range u.Table {
			acc = (acc*u.Mul ^ t) & m
		}
	}
	return acc
}

func straightSrc(u Unit) string {
	var b strings.Builder
	w := func(format string, a ...any) { fmt.Fprintf(&b, format+"\n", a...) }
	w("_start:")
	switch u.ISA {
	case "tiny32":
		w("\ttrap 1\n\tmov r8, r1\n\ttrap 1\n\tslli r1, r1, 8\n\tor r8, r8, r1")
		w("\tlih r9, hi16(%d)\n\tori r9, r9, lo16(%d)\n\txor r8, r8, r9", u.Init, u.Init)
		w("\tlih r10, hi16(%d)\n\tori r10, r10, lo16(%d)", u.Mul, u.Mul)
		w("\tli r7, 0\n\tli r11, %d", u.Passes)
		w("outer:\n\tli r4, tab\n\tli r5, %d", len(u.Table))
		w("inner:\n\tlw r6, 0(r4)\n\tmul r8, r8, r10\n\txor r8, r8, r6\n\taddi r4, r4, 4\n\taddi r5, r5, -1\n\tbne r5, r7, inner")
		w("\taddi r11, r11, -1\n\tbne r11, r7, outer")
		for sh := 0; sh < 32; sh += 8 {
			w("\tsrli r1, r8, %d\n\ttrap 2", sh)
		}
		w("\ttrap 0")
	case "rv32i":
		w("\taddi a7, zero, 1\n\tecall\n\taddi s1, a0, 0\n\tecall\n\tslli a0, a0, 8\n\tor s1, s1, a0")
		w("\tlui t0, hi20(%d)\n\taddi t0, t0, lo12(%d)\n\txor s1, s1, t0", u.Init, u.Init)
		w("\tlui s2, hi20(%d)\n\taddi s2, s2, lo12(%d)", u.Mul, u.Mul)
		w("\taddi s3, zero, %d", u.Passes)
		w("outer:\n\tlui s4, hi20(tab)\n\taddi s4, s4, lo12(tab)\n\taddi s5, zero, %d", len(u.Table))
		w("inner:\n\tlw t2, 0(s4)\n\tmul s1, s1, s2\n\txor s1, s1, t2\n\taddi s4, s4, 4\n\taddi s5, s5, -1\n\tbne s5, zero, inner")
		w("\taddi s3, s3, -1\n\tbne s3, zero, outer")
		w("\taddi a7, zero, 2")
		for sh := 0; sh < 32; sh += 8 {
			w("\tsrli a0, s1, %d\n\tecall", sh)
		}
		w("\taddi a7, zero, 0\n\tecall")
	case "m16":
		w("\ttrap 1\n\tmov g2, g1\n\ttrap 1\n\tldi g3, 8\n\tshl g1, g3\n\tor g2, g1")
		w("\tldi g3, %d\n\txor g2, g3\n\tldi g7, %d\n\tldi g5, %d", simm16(u.Init), simm16(u.Mul), u.Passes)
		w("outer:\n\tldi g4, tab\n\tldi g0, %d", len(u.Table))
		w("inner:\n\tldx g3, 0(g4)\n\tmul g2, g7\n\txor g2, g3\n\taddi g4, 2\n\taddi g0, -1\n\tbne inner")
		w("\taddi g5, -1\n\tbne outer")
		w("\tmov g1, g2\n\ttrap 2\n\tldi g3, 8\n\tmov g1, g2\n\tshr g1, g3\n\ttrap 2\n\ttrap 0")
	}
	words := make([]string, len(u.Table))
	for i, t := range u.Table {
		words[i] = fmt.Sprint(t)
	}
	w("tab:\t.word %s", strings.Join(words, ", "))
	return b.String()
}

// simm16 renders a 16-bit pattern as the signed immediate m16's 16-bit
// fields accept.
func simm16(v uint64) int64 { return int64(int16(uint16(v))) }

// ---- bughunt ----

const (
	bughuntInputs = 5
	oobAddr       = 0xdead0000 // rv32i's planted store target, outside every region
	oobMarker     = 0x5a
)

// BughuntPool returns perISA crackme-shaped programs per ISA: a planted
// fault (division by zero on tiny32 and m16, whose division traps; an
// out-of-bounds store on rv32i, whose division does not) sits behind a
// multiply-add rolling hash of the input. The guard compares the low 16
// bits of the hash, so every ISA's query has the same width and about
// 2^(8n-16) solutions: solver cost varies less from program to program
// than with a full-width preimage, which has about one.
func BughuntPool(seed uint64, perISA int) []Unit {
	r := rng(seed, "bughunt")
	var out []Unit
	for _, isa := range isas {
		for j := 0; j < perISA; j++ {
			out = append(out, bughuntUnit(r, fmt.Sprintf("bughunt-%s-%d", isa, j), isa, bughuntInputs, 17+2*(j%24), r.IntN(2)))
		}
	}
	return out
}

// bughuntUnit draws one bughunt program with n input bytes. The initial
// hash has the given parity; the multiplier is odd, so the folded hash
// constant keeps it and two streams of opposite parity never share a
// solver query.
func bughuntUnit(r *rand.Rand, name, isa string, n, mul, parity int) Unit {
	m := mask(isaBits(isa))
	u := Unit{Name: name, ISA: isa, Kind: "bughunt", Inputs: n,
		Init: (r.Uint64()&^1 | uint64(parity)) & m, Mul: uint64(mul)}
	secret := make([]byte, n)
	for i := range secret {
		secret[i] = byte(0x21 + r.IntN(94))
	}
	u.Target = RollingHash(u, secret) & 0xffff
	u.Src = bughuntSrc(u)
	return u
}

// RollingHash is the Go reference of the bughunt program's hash; the
// planted fault is reached when its low 16 bits equal Target.
func RollingHash(u Unit, in []byte) uint64 {
	m := mask(isaBits(u.ISA))
	h := u.Init
	for _, c := range in {
		h = (h*u.Mul + uint64(c)) & m
	}
	return h
}

func bughuntSrc(u Unit) string {
	var b strings.Builder
	w := func(format string, a ...any) { fmt.Fprintf(&b, format+"\n", a...) }
	w("_start:")
	switch u.ISA {
	case "tiny32":
		w("\tlih r8, hi16(%d)\n\tori r8, r8, lo16(%d)", u.Init, u.Init)
		w("\tlih r10, hi16(%d)\n\tori r10, r10, lo16(%d)", u.Mul, u.Mul)
		w("\tli r5, %d\n\tli r7, 0", u.Inputs)
		w("loop:\n\ttrap 1\n\tmul r8, r8, r10\n\tadd r8, r8, r1\n\taddi r5, r5, -1\n\tbne r5, r7, loop")
		w("\tandi r8, r8, lo16(65535)\n\tli r9, 0\n\tori r9, r9, lo16(%d)\n\tbne r8, r9, reject", u.Target)
		w("\tli r2, 7\n\tli r3, 0\nplanted:\n\tdivu r4, r2, r3")
		w("reject:\n\ttrap 0")
	case "rv32i":
		w("\tlui s1, hi20(%d)\n\taddi s1, s1, lo12(%d)", u.Init, u.Init)
		w("\tlui t0, hi20(%d)\n\taddi t0, t0, lo12(%d)", u.Mul, u.Mul)
		w("\taddi s2, zero, %d\n\taddi a7, zero, 1", u.Inputs)
		w("loop:\n\tecall\n\tmul s1, s1, t0\n\tadd s1, s1, a0\n\taddi s2, s2, -1\n\tbne s2, zero, loop")
		w("\tslli s1, s1, 16\n\tsrli s1, s1, 16\n\tlui t1, hi20(%d)\n\taddi t1, t1, lo12(%d)\n\tbne s1, t1, reject", u.Target, u.Target)
		w("\tlui t2, hi20(%d)\n\taddi t3, zero, %d\nplanted:\n\tsw t3, 0(t2)", oobAddr, oobMarker)
		w("reject:\n\taddi a7, zero, 0\n\tecall")
	case "m16":
		w("\tldi g2, %d\n\tldi g7, %d\n\tldi g5, %d", simm16(u.Init), simm16(u.Mul), u.Inputs)
		w("loop:\n\ttrap 1\n\tmul g2, g7\n\tadd g2, g1\n\taddi g5, -1\n\tbne loop")
		w("\tldi g3, %d\n\tcmp g2, g3\n\tbne reject", simm16(u.Target))
		w("\tldi g3, 7\n\tldi g4, 0\nplanted:\n\tdiv g3, g4")
		w("reject:\n\ttrap 0")
	}
	return b.String()
}
