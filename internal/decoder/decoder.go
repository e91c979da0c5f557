// Package decoder implements the retargetable instruction decoder and
// disassembler. Both are generated from an ADL architecture model: the
// decoder matches the mask/value pairs the ADL checker computed from each
// instruction's encoding constraints, trying the longest encodings first
// so that variable-length architectures decode unambiguously.
package decoder

import (
	"bytes"
	"fmt"
	"strings"

	"repro/internal/adl"
	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/faultinject"
	"repro/internal/rtl"
)

// Decoded is one decoded instruction.
type Decoded struct {
	Insn *adl.Insn
	Ops  rtl.Operands
	Word uint64 // raw encoding bits
	Len  int    // encoding length in bytes
}

// Decoder decodes instruction bytes for one architecture.
type Decoder struct {
	arch   *adl.Arch
	groups []group // one per encoding length, longest first

	// Cov, when set, records decode-layer coverage for every successful
	// match. match() is the single choke point all consumers go through
	// (engine, concrete emulator, oracle round-trips, disassembly), so
	// this one hook covers them all. Nil-safe.
	Cov *cover.ArchCov

	// Inject, when set, is the fault-injection hook for the decode site
	// (docs/robustness.md): it can panic or synthesize a malformed
	// decode (faultinject.ErrDecode). Nil-safe.
	Inject *faultinject.Injector
}

// group holds the instructions of one encoding length with a first-level
// index on the most significant byte of the masked word (the byte where
// well-designed ISAs put their primary opcode).
type group struct {
	bytes  int
	byIdx  [256][]*adl.Insn // indexed by top byte when fully masked there
	linear []*adl.Insn      // instructions whose top byte is not fully fixed
}

// New builds a decoder for the architecture.
func New(a *adl.Arch) *Decoder {
	d := &Decoder{arch: a}
	for _, w := range a.FormatWidths() {
		g := group{bytes: int(w / 8)}
		topShift := w - 8
		for _, ins := range a.Insns {
			if ins.Format.Width != w {
				continue
			}
			topMask := ins.Mask >> topShift & 0xff
			if topMask == 0xff {
				top := ins.Match >> topShift & 0xff
				g.byIdx[top] = append(g.byIdx[top], ins)
			} else {
				g.linear = append(g.linear, ins)
			}
		}
		d.groups = append(d.groups, g)
	}
	return d
}

// Arch returns the decoder's architecture.
func (d *Decoder) Arch() *adl.Arch { return d.arch }

// word assembles n bytes into an integer per the architecture byte order.
func (d *Decoder) word(b []byte) uint64 {
	var v uint64
	if d.arch.Endian == adl.Little {
		for i := len(b) - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	} else {
		for _, c := range b {
			v = v<<8 | uint64(c)
		}
	}
	return v
}

// ErrNoMatch reports undecodable bytes. Bytes is a copy: callers may
// reuse the buffer they decoded from.
type ErrNoMatch struct {
	Bytes []byte
}

func (e *ErrNoMatch) Error() string {
	return fmt.Sprintf("decoder: no instruction matches % x", e.Bytes)
}

// Decode decodes the instruction at the start of mem. Longer encodings
// are preferred. mem may be longer than the instruction.
func (d *Decoder) Decode(mem []byte) (Decoded, error) {
	if k := d.Inject.Fire(faultinject.SiteDecode); k == faultinject.KindDecode {
		return Decoded{}, faultinject.ErrDecode
	}
	for _, g := range d.groups {
		if len(mem) < g.bytes {
			continue
		}
		w := d.word(mem[:g.bytes])
		top := int(w >> (uint(g.bytes)*8 - 8) & 0xff)
		if dec, ok := d.match(g.byIdx[top], w, g.bytes); ok {
			return dec, nil
		}
		if dec, ok := d.match(g.linear, w, g.bytes); ok {
			return dec, nil
		}
	}
	n := d.arch.MaxInsnBytes()
	if n > len(mem) {
		n = len(mem)
	}
	return Decoded{}, &ErrNoMatch{Bytes: bytes.Clone(mem[:n])}
}

// Window returns how many leading bytes of mem the decode dec depends
// on, where mem holds the bytes dec was decoded from. That is dec.Len,
// unless a longer encoding agrees with those bytes and could still match
// if a later byte changed: longer encodings are preferred, so then the
// longest such encoding's length. A byte past the window cannot change
// the decode.
func (d *Decoder) Window(mem []byte, dec Decoded) int {
	for _, g := range d.groups { // longest first
		if g.bytes <= dec.Len || len(mem) < g.bytes {
			continue
		}
		known := make([]byte, g.bytes)
		for i := 0; i < dec.Len; i++ {
			known[i] = 0xff
		}
		km, w := d.word(known), d.word(mem[:g.bytes])
		agrees := func(ins *adl.Insn) bool { return (w^ins.Match)&ins.Mask&km == 0 }
		for _, ins := range g.linear {
			if agrees(ins) {
				return g.bytes
			}
		}
		for _, insns := range g.byIdx {
			for _, ins := range insns {
				if agrees(ins) {
					return g.bytes
				}
			}
		}
	}
	return dec.Len
}

func (d *Decoder) match(candidates []*adl.Insn, w uint64, n int) (Decoded, bool) {
	for _, ins := range candidates {
		if w&ins.Mask == ins.Match {
			d.Cov.Hit(cover.LDecode, ins)
			ops := make(rtl.Operands, len(ins.Operands))
			for _, op := range ins.Operands {
				ops[op.Name] = adl.ExtractOperand(op, w)
			}
			return Decoded{Insn: ins, Ops: ops, Word: w, Len: n}, true
		}
	}
	return Decoded{}, false
}

// Disasm renders a decoded instruction as assembly text. addr is the
// instruction's address, used to print pc-relative operands as absolute
// targets.
func Disasm(dec Decoded, addr uint64) string {
	var sb strings.Builder
	sb.WriteString(dec.Insn.Mnemonic)
	for _, tok := range dec.Insn.AsmToks {
		if tok.Operand == nil {
			sb.WriteString(tok.Lit)
			continue
		}
		// Operands get a leading space except directly after an opening
		// parenthesis, so "lw %rd, %imm(%ra)" prints as "lw r1, 8(r2)".
		s := sb.String()
		if s[len(s)-1] != '(' {
			sb.WriteByte(' ')
		}
		writeOperand(&sb, tok.Operand, dec.Ops[tok.Operand.Name], addr)
	}
	return sb.String()
}

func writeOperand(sb *strings.Builder, op *adl.Operand, v uint64, addr uint64) {
	switch {
	case op.Kind == adl.FReg:
		sb.WriteString(op.File.Regs[v].Name)
	case op.Rel():
		off := bv.SExt(v, op.Bits())
		fmt.Fprintf(sb, "%#x", addr+off)
	case op.Signed():
		fmt.Fprintf(sb, "%d", bv.ToInt64(v, op.Bits()))
	default:
		fmt.Fprintf(sb, "%d", v)
	}
}
