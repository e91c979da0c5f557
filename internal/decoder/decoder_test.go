package decoder_test

import (
	"encoding/binary"
	"testing"

	"repro/arch"
	"repro/internal/adl"
	"repro/internal/asm"
	"repro/internal/decoder"
)

// encodeOne assembles a single instruction and returns its bytes.
func encodeOne(t *testing.T, archName, line string) []byte {
	t.Helper()
	a := arch.MustLoad(archName)
	p, err := asm.New(a).Assemble("one.s", line+"\n")
	if err != nil {
		t.Fatalf("%s: %v", line, err)
	}
	if len(p.Segments) != 1 {
		t.Fatalf("%s: %d segments", line, len(p.Segments))
	}
	return p.Segments[0].Data
}

// TestRV32IGoldenEncodings cross-checks the ADL-generated assembler
// against independently known RISC-V machine code (values from the
// RISC-V ISA manual / binutils).
func TestRV32IGoldenEncodings(t *testing.T) {
	golden := []struct {
		asm  string
		want uint32
	}{
		{"addi a0, zero, 6", 0x00600513},
		{"addi sp, sp, -16", 0xff010113},
		{"add a0, a1, a2", 0x00c58533},
		{"sub a0, a1, a2", 0x40c58533},
		{"and t0, t1, t2", 0x007372b3},
		{"xori a3, a4, 255", 0x0ff74693},
		{"slli a0, a0, 3", 0x00351513},
		{"srai a0, a0, 1", 0x40155513},
		{"lui a0, 0xdead", 0x0dead537},
		{"lw a0, 8(sp)", 0x00812503},
		{"sw a0, 12(sp)", 0x00a12623},
		{"lbu t0, 0(a0)", 0x00054283},
		{"sb t0, 1(a0)", 0x005500a3},
		{"mul a0, a1, a2", 0x02c58533},
		{"divu a0, a1, a2", 0x02c5d533},
		{"ecall", 0x00000073},
		{"ebreak", 0x00100073},
		{"jalr ra, 0(a0)", 0x000500e7},
	}
	for _, g := range golden {
		got := encodeOne(t, "rv32i", g.asm)
		if len(got) != 4 {
			t.Errorf("%s: %d bytes", g.asm, len(got))
			continue
		}
		if w := binary.LittleEndian.Uint32(got); w != g.want {
			t.Errorf("%s: encoded %#08x, want %#08x", g.asm, w, g.want)
		}
	}
}

// TestRV32IBranchJumpEncodings checks the scattered-immediate B and J
// formats with known offsets.
func TestRV32IBranchJumpEncodings(t *testing.T) {
	// beq a0, a1, +8 from address 0: imm=8 -> 0x00b50463.
	a := arch.MustLoad("rv32i")
	p, err := asm.New(a).Assemble("b.s", `
_start:
	beq a0, a1, target
	addi zero, zero, 0
target:
	jal ra, _start
`)
	if err != nil {
		t.Fatal(err)
	}
	data := p.Segments[0].Data
	if w := binary.LittleEndian.Uint32(data[0:4]); w != 0x00b50463 {
		t.Errorf("beq +8 encoded %#08x, want 0x00b50463", w)
	}
	// jal ra, -8 from address 8: imm=-8 -> 0xff9ff0ef.
	if w := binary.LittleEndian.Uint32(data[8:12]); w != 0xff9ff0ef {
		t.Errorf("jal -8 encoded %#08x, want 0xff9ff0ef", w)
	}
}

// TestRoundTripAllInsns decodes every encoding the assembler produces
// back to the same instruction, across all embedded architectures.
func TestDisasmRoundTripTiny32(t *testing.T) {
	a := arch.MustLoad("tiny32")
	d := decoder.New(a)
	lines := []string{
		"add r1, r2, r3",
		"addi r1, r2, -42",
		"lw r5, 16(r14)",
		"sw r5, -4(r14)",
		"li r7, 1000",
		"halt",
		"trap 3",
		"jr r9",
	}
	for _, line := range lines {
		data := encodeOne(t, "tiny32", line)
		dec, err := d.Decode(data)
		if err != nil {
			t.Errorf("%s: %v", line, err)
			continue
		}
		back := decoder.Disasm(dec, 0)
		// Re-assemble the disassembly; it must produce identical bytes.
		data2 := encodeOne(t, "tiny32", back)
		if string(data) != string(data2) {
			t.Errorf("%s -> %q -> % x != % x", line, back, data2, data)
		}
	}
}

func TestDecodeUnknownBytes(t *testing.T) {
	d := decoder.New(arch.MustLoad("rv32i"))
	if _, err := d.Decode([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("all-ones word decoded on rv32i")
	}
	var nm *decoder.ErrNoMatch
	buf := []byte{0xff, 0xff, 0xff, 0xff}
	_, err := d.Decode(buf)
	if !errorsAs(err, &nm) {
		t.Fatalf("error type %T", err)
	}
	// The error keeps its own copy: the emulator reuses its fetch buffer.
	buf[0] = 0
	if nm.Bytes[0] != 0xff {
		t.Errorf("ErrNoMatch.Bytes aliases the decoded buffer: % x", nm.Bytes)
	}
}

func errorsAs(err error, target **decoder.ErrNoMatch) bool {
	if e, ok := err.(*decoder.ErrNoMatch); ok {
		*target = e
		return true
	}
	return false
}

// TestM16VariableLengthDecode checks that the decoder prefers the longer
// encoding and reports correct lengths on a mixed stream.
func TestM16VariableLengthDecode(t *testing.T) {
	a := arch.MustLoad("m16")
	p, err := asm.New(a).Assemble("vl.s", `
_start:
	mov g0, g1     ; 16-bit
	ldi g2, -7     ; 32-bit (immediate extension word)
	halt           ; 16-bit
`)
	if err != nil {
		t.Fatal(err)
	}
	d := decoder.New(a)
	data := p.Segments[0].Data
	wantLens := []int{2, 4, 2}
	wantNames := []string{"mov", "ldi", "halt"}
	off := 0
	for i, want := range wantLens {
		dec, err := d.Decode(data[off:])
		if err != nil {
			t.Fatal(err)
		}
		if dec.Len != want || dec.Insn.Mnemonic != wantNames[i] {
			t.Errorf("insn %d: %s len %d, want %s len %d", i, dec.Insn.Mnemonic, dec.Len, wantNames[i], want)
		}
		off += dec.Len
	}
	// Disassembly of the signed immediate prints -7.
	dec, _ := d.Decode(data[2:])
	if got := decoder.Disasm(dec, 2); got != "ldi g2, -7" {
		t.Errorf("disasm %q", got)
	}
}

// TestRelOperandDisasmShowsTarget: pc-relative operands print as
// absolute addresses.
func TestRelOperandDisasmShowsTarget(t *testing.T) {
	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("b.s", `
_start:
	beq r1, r2, target
	halt
target:
	halt
`)
	if err != nil {
		t.Fatal(err)
	}
	d := decoder.New(a)
	dec, err := d.Decode(p.Segments[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if got := decoder.Disasm(dec, 0); got != "beq r1, r2, 0x8" {
		t.Errorf("disasm %q, want target 0x8", got)
	}
}

// TestDecodeShortBuffer: fewer bytes than the longest encoding must
// still decode short instructions, and fail cleanly otherwise.
func TestDecodeShortBuffer(t *testing.T) {
	a := arch.MustLoad("m16")
	d := decoder.New(a)
	// "halt" is 0x0000 big-endian: a 2-byte buffer decodes it even though
	// the ISA has 4-byte encodings.
	dec, err := d.Decode([]byte{0x00, 0x00})
	if err != nil || dec.Insn.Mnemonic != "halt" {
		t.Fatalf("short-buffer decode: %v %v", dec, err)
	}
	if _, err := d.Decode([]byte{0x00}); err == nil {
		t.Error("1-byte buffer decoded on a 16-bit-min ISA")
	}
}

// TestWindow: a decode depends on its own bytes only, unless a longer
// encoding agrees with them — then a later byte can still flip the
// decode to the longer form, and the window covers it.
func TestWindow(t *testing.T) {
	a, err := adl.Load("window.adl", `
arch w
bits 16
endian big
reg g0 .. g3 : 16
reg pc : 16 [pc]
space mem : addr 16 cell 8
format S : 16 { op:8, x:8 }
format L : 32 { op:8, x:8, sub:8, y:8 }
insn short : S(op = 1) "short %x" { g0 = g0; }
insn other : S(op = 2) "other %x" { g0 = g0; }
insn long : L(op = 1, sub = 0xaa) "long %x, %y" { g0 = g0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	d := decoder.New(a)
	for _, tc := range []struct {
		mem        []byte
		name       string
		len, width int
	}{
		{[]byte{1, 5, 0, 0}, "short", 2, 4},    // byte 2 = 0xaa would decode as long
		{[]byte{2, 5, 0xaa, 0}, "other", 2, 2}, // no longer encoding starts with op 2
		{[]byte{1, 5, 0xaa, 7}, "long", 4, 4},
	} {
		dec, err := d.Decode(tc.mem)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Insn.Mnemonic != tc.name || dec.Len != tc.len {
			t.Fatalf("% x: decoded %s len %d, want %s len %d", tc.mem, dec.Insn.Mnemonic, dec.Len, tc.name, tc.len)
		}
		if got := d.Window(tc.mem, dec); got != tc.width {
			t.Errorf("% x: Window = %d, want %d", tc.mem, got, tc.width)
		}
	}
	// m16's short forms fix their opcode byte, which no 32-bit form
	// shares: a 16-bit instruction's window is its own two bytes.
	m := decoder.New(arch.MustLoad("m16"))
	mem := append(encodeOne(t, "m16", "halt"), 0xff, 0xff)
	if dec, err := m.Decode(mem); err != nil || m.Window(mem, dec) != 2 {
		t.Errorf("m16 halt: window %d (%v), want 2", m.Window(mem, dec), err)
	}
}
