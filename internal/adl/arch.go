// Package adl implements the architecture description language (ADL) that
// drives the retargetable symbolic execution stack: a declarative file
// describes an instruction-set architecture — word size, endianness,
// registers, memory, instruction encodings, assembly syntax, and
// register-transfer semantics — and this package compiles it into the Arch
// model consumed by the generated decoder, assembler, concrete emulator,
// and symbolic execution engine.
package adl

import (
	"fmt"
	"sort"
)

// Endian is a byte order.
type Endian int

// Byte orders.
const (
	Little Endian = iota
	Big
)

func (e Endian) String() string {
	if e == Big {
		return "big"
	}
	return "little"
}

// Arch is the fully resolved model of one instruction-set architecture.
type Arch struct {
	Name   string
	Bits   uint // machine word and address width
	Endian Endian

	Regs     []*Reg // all registers, including file members
	RegFiles []*RegFile
	PC       *Reg // the program counter (exactly one [pc] register)
	SP       *Reg // the stack pointer, nil if none is declared

	Space *Space // the single memory space

	Formats []*Format
	Insns   []*Insn
	Pseudos []*Pseudo

	regByName  map[string]*Reg
	fileByName map[string]*RegFile
}

// Reg is a machine register.
type Reg struct {
	Name  string
	Width uint
	Subs  []SubField
	File  *RegFile // non-nil for register-file members
	Index uint64   // index within File
	Num   int      // dense index over all registers, for state arrays
	Zero  bool     // hardwired to zero (reads 0, writes discarded)
}

// SubField names a bit range of a register (e.g. a condition flag).
type SubField struct {
	Name string
	Hi   uint
	Lo   uint
}

// Sub returns the named subfield, if any.
func (r *Reg) Sub(name string) (SubField, bool) {
	for _, s := range r.Subs {
		if s.Name == name {
			return s, true
		}
	}
	return SubField{}, false
}

// RegFile is an indexable bank of registers (r0..r15).
type RegFile struct {
	Name  string
	Width uint
	Regs  []*Reg
}

// Space is a memory space.
type Space struct {
	Name     string
	AddrBits uint
	CellBits uint
}

// FieldKind classifies how an encoding field is used as an operand.
type FieldKind int

// Field kinds.
const (
	FPlain FieldKind = iota // encoding-only (opcode, padding)
	FReg                    // index into a register file
	FSImm                   // signed immediate
	FUImm                   // unsigned immediate
)

// Field is a bit field of an instruction format. Hi and Lo are bit
// positions within the format word, with bit Width-1 the first-listed
// (most significant) bit.
type Field struct {
	Name string
	Hi   uint
	Lo   uint
	Kind FieldKind
	File *RegFile // for FReg
}

// Bits returns the field width in bits.
func (f *Field) Bits() uint { return f.Hi - f.Lo + 1 }

// Format is an instruction encoding layout.
type Format struct {
	Name   string
	Width  uint // total bits, a multiple of 8, at most 64
	Fields []*Field
}

// Bytes returns the encoding length in bytes.
func (f *Format) Bytes() int { return int(f.Width / 8) }

// Field returns the named field, or nil.
func (f *Format) Field(name string) *Field {
	for _, fd := range f.Fields {
		if fd.Name == name {
			return fd
		}
	}
	return nil
}

// OperandAttr flags modify assembler/disassembler treatment of an operand.
type OperandAttr uint8

// Operand attributes.
const (
	// AttrRel marks a pc-relative operand: the assembler encodes label L
	// as L minus the instruction's own address.
	AttrRel OperandAttr = 1 << iota
	// AttrSigned prints the operand as a signed number in disassembly.
	AttrSigned
)

// CatItem is one piece of a composed operand: either an encoding field or
// a run of constant bits.
type CatItem struct {
	Field *Field // nil for a constant item
	Val   uint64
	Width uint // constant width; for fields use Field.Bits()
}

// Bits returns the width of the item.
func (c CatItem) Bits() uint {
	if c.Field != nil {
		return c.Field.Bits()
	}
	return c.Width
}

// Operand is a named operand of an instruction: a register field, an
// immediate field, or a composition of fields and constant bits
// (MSB-first). Register operands have exactly one item, which is an FReg
// field.
type Operand struct {
	Name  string
	Items []CatItem
	Attrs OperandAttr

	// Kind summarises how semantics and assembler treat the operand.
	Kind FieldKind // FReg, FSImm or FUImm
	File *RegFile  // for FReg
}

// Bits returns the operand's total value width.
func (o *Operand) Bits() uint {
	var n uint
	for _, it := range o.Items {
		n += it.Bits()
	}
	return n
}

// Rel reports whether the operand is pc-relative.
func (o *Operand) Rel() bool { return o.Attrs&AttrRel != 0 }

// Signed reports whether the operand prints as signed.
func (o *Operand) Signed() bool { return o.Attrs&AttrSigned != 0 || o.Kind == FSImm }

// AsmTok is one token of an instruction's assembly template: either
// literal text or an operand reference.
type AsmTok struct {
	Lit     string   // literal text ("", when Operand is set)
	Operand *Operand // nil for literals
}

// Insn is one instruction definition.
type Insn struct {
	Name     string
	Format   *Format
	Mask     uint64 // fixed-bit mask over the format word
	Match    uint64 // fixed-bit values
	Mnemonic string
	AsmToks  []AsmTok
	Operands []*Operand
	Sem      []Stmt // checked semantics
	Line     int
}

// FormatName is the name of the instruction's encoding format, the
// symbolization profiles record next to the mnemonic.
func (i *Insn) FormatName() string {
	if i.Format == nil {
		return ""
	}
	return i.Format.Name
}

// Operand returns the named operand, or nil.
func (i *Insn) Operand(name string) *Operand {
	for _, o := range i.Operands {
		if o.Name == name {
			return o
		}
	}
	return nil
}

// PseudoTok is one token of a pseudo-instruction template: literal text
// or a parameter reference.
type PseudoTok struct {
	Lit   string // literal text ("" when Param is set)
	Param string // parameter name ("" for literals)
}

// Pseudo is an assembler-level pseudo instruction: its template is
// matched like a real instruction's, the captured parameter texts are
// substituted into Expansion, and the result (one or more
// ';'-separated lines) is assembled in its place.
type Pseudo struct {
	Mnemonic  string
	Toks      []PseudoTok
	Expansion string
	Line      int
}

// PseudosByMnemonic returns all pseudo instructions with the mnemonic.
func (a *Arch) PseudosByMnemonic(m string) []*Pseudo {
	var out []*Pseudo
	for _, p := range a.Pseudos {
		if p.Mnemonic == m {
			out = append(out, p)
		}
	}
	return out
}

// Reg returns the named register (following aliases), or nil.
func (a *Arch) Reg(name string) *Reg { return a.regByName[name] }

// RegFile returns the named register file, or nil.
func (a *Arch) RegFile(name string) *RegFile { return a.fileByName[name] }

// InsnsByMnemonic returns all instructions with the given mnemonic, in
// declaration order.
func (a *Arch) InsnsByMnemonic(m string) []*Insn {
	var out []*Insn
	for _, i := range a.Insns {
		if i.Mnemonic == m {
			out = append(out, i)
		}
	}
	return out
}

// FormatWidths returns the distinct encoding lengths in bits, descending,
// so that decoders can try the longest encodings first.
func (a *Arch) FormatWidths() []uint {
	seen := map[uint]bool{}
	var ws []uint
	for _, f := range a.Formats {
		if !seen[f.Width] {
			seen[f.Width] = true
			ws = append(ws, f.Width)
		}
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i] > ws[j] })
	return ws
}

// MaxInsnBytes returns the longest encoding length in bytes.
func (a *Arch) MaxInsnBytes() int {
	max := 0
	for _, f := range a.Formats {
		if f.Bytes() > max {
			max = f.Bytes()
		}
	}
	return max
}

// String summarizes the architecture.
func (a *Arch) String() string {
	return fmt.Sprintf("arch %s: %d-bit %s-endian, %d regs, %d formats, %d insns",
		a.Name, a.Bits, a.Endian, len(a.Regs), len(a.Formats), len(a.Insns))
}

// ExtractOperand computes the value of operand o from a decoded format
// word (the raw instruction bits).
func ExtractOperand(o *Operand, word uint64) uint64 {
	var v uint64
	for _, it := range o.Items {
		w := it.Bits()
		var part uint64
		if it.Field != nil {
			part = word >> it.Field.Lo & (1<<w - 1)
		} else {
			part = it.Val
		}
		v = v<<w | part
	}
	return v
}

// EncodeOperand writes operand value v into word, returning an error when
// v does not fit (constant bits mismatch or value out of range). The
// value is interpreted modulo 2^bits, so negative pc-relative offsets
// encode naturally.
func EncodeOperand(o *Operand, v uint64, word uint64) (uint64, error) {
	total := o.Bits()
	if total < 64 {
		max := uint64(1) << total
		switch {
		case o.Rel():
			// Pc-relative offsets are genuine signed integers: check the
			// range strictly, as real assemblers do for branch reach.
			s := int64(v)
			if s >= int64(max)/2 || s < -int64(max)/2 {
				return 0, fmt.Errorf("operand %s: offset %d out of signed %d-bit range", o.Name, s, total)
			}
			v &= max - 1
		case v < max:
			// Raw width-total pattern: accepted for data immediates even
			// on signed fields (the `li r1, 0xffff` convention).
		case o.Signed() && int64(v) < 0 && int64(v) >= -int64(max)/2:
			v &= max - 1 // sign-extended negative value
		default:
			return 0, fmt.Errorf("operand %s: value %d out of %d-bit range", o.Name, int64(v), total)
		}
	}
	// Split v over the items, MSB-first.
	shift := total
	for _, it := range o.Items {
		w := it.Bits()
		shift -= w
		part := v >> shift & (1<<w - 1)
		if it.Field == nil {
			if part != it.Val {
				return 0, fmt.Errorf("operand %s: value %#x conflicts with constant bits", o.Name, v)
			}
			continue
		}
		word &^= (1<<w - 1) << it.Field.Lo
		word |= part << it.Field.Lo
	}
	return word, nil
}
