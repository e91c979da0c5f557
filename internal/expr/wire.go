package expr

// Wire format for expression DAGs, so engine state (registers, memory
// overlays, path conditions) can be written to disk and rehydrated in
// a fresh process — the substrate of core state snapshots and the
// service job journal (docs/service.md).
//
// Serialize emits the DAG reachable from the given roots as a flat
// node table in deterministic post order: node i's operands always
// have indices < i, shared subterms appear once, and the same roots in
// the same order produce identical bytes. Parse rebuilds the terms
// through the Builder's interning primitive without re-simplification,
// so the reconstruction is exact: every parsed term carries the same
// structural digest (hash.go) as its source, even though builder-local
// intern ids differ. That digest stability is what makes resumed
// explorations produce canonical reports bit-identical to
// uninterrupted runs.
//
// Parse trusts nothing: every kind, width, operand index, sort and
// bound is validated, and malformed input yields an error — never a
// panic and never an unsound term (FuzzExprWireRoundTrip holds it to
// that).
//
// Layout (all integers little-endian):
//
//	header: "SXEW" | u8 version | u32 nnodes | u32 nroots
//	node:   u8 kind | u8 width | kind-specific body
//	  KConst:          u64 value
//	  KBoolConst:      u8 value
//	  KVar, KBoolVar:  u16 nameLen | name bytes
//	  KExtract:        u16 hi<<8|lo | u32 arg
//	  other 1-arg:     u32 arg
//	  2-arg:           u32 arg0 | u32 arg1
//	  3-arg:           u32 arg0 | u32 arg1 | u32 arg2
//	roots:  u32 node index, nroots times

import (
	"encoding/binary"
	"fmt"

	"repro/internal/bv"
)

const (
	wireMagic   = "SXEW"
	wireVersion = 1
)

// wireArity is the operand count demanded of each kind on the wire.
var wireArity = [numKinds]uint8{
	KConst: 0, KVar: 0, KBoolConst: 0, KBoolVar: 0,
	KNot: 1, KNeg: 1, KExtract: 1, KZExt: 1, KSExt: 1, KBoolNot: 1,
	KAdd: 2, KSub: 2, KMul: 2, KUDiv: 2, KURem: 2, KSDiv: 2, KSRem: 2,
	KAnd: 2, KOr: 2, KXor: 2, KShl: 2, KLShr: 2, KAShr: 2, KConcat: 2,
	KEq: 2, KULt: 2, KULe: 2, KSLt: 2, KSLe: 2,
	KBoolAnd: 2, KBoolOr: 2, KBoolXor: 2,
	KITE: 3, KBoolITE: 3,
}

// Serialize encodes the DAG reachable from roots. Nil roots are
// rejected by construction (the engine never stores them); callers
// serialize the roots of one Builder at a time.
func Serialize(roots []*Expr) []byte {
	index := make(map[*Expr]uint32)
	var nodes []*Expr
	// Post-order DFS: operands are emitted before their users, shared
	// subterms once.
	var visit func(e *Expr)
	visit = func(e *Expr) {
		if _, ok := index[e]; ok {
			return
		}
		for i := 0; i < int(e.nargs); i++ {
			visit(e.args[i])
		}
		index[e] = uint32(len(nodes))
		nodes = append(nodes, e)
	}
	for _, r := range roots {
		visit(r)
	}

	buf := make([]byte, 0, 16+12*len(nodes)+4*len(roots))
	buf = append(buf, wireMagic...)
	buf = append(buf, wireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(nodes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(roots)))
	for _, e := range nodes {
		buf = append(buf, byte(e.kind), e.width)
		switch e.kind {
		case KConst:
			buf = binary.LittleEndian.AppendUint64(buf, e.val)
		case KBoolConst:
			buf = append(buf, byte(e.val))
		case KVar, KBoolVar:
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(e.name)))
			buf = append(buf, e.name...)
		case KExtract:
			buf = binary.LittleEndian.AppendUint16(buf, uint16(e.val))
			buf = binary.LittleEndian.AppendUint32(buf, index[e.args[0]])
		default:
			for i := 0; i < int(e.nargs); i++ {
				buf = binary.LittleEndian.AppendUint32(buf, index[e.args[i]])
			}
		}
	}
	for _, r := range roots {
		buf = binary.LittleEndian.AppendUint32(buf, index[r])
	}
	return buf
}

// wireReader is a bounds-checked cursor over the wire bytes.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) need(n int) bool { return len(r.b)-r.off >= n }

func (r *wireReader) u8() byte {
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u16() uint16 {
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *wireReader) u32() uint32 {
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Parse decodes a Serialize blob into b, returning the root terms in
// their serialized order. Reconstruction goes through the interning
// primitive directly — no simplification — so parsed terms are
// structurally identical to (and digest-equal with) the serialized
// ones. Variables are registered with the Builder; a name collision
// with a different width or sort is an error, as are all malformed
// kinds, widths, bounds and operand references.
func Parse(b *Builder, data []byte) ([]*Expr, error) {
	r := &wireReader{b: data}
	if !r.need(len(wireMagic) + 1 + 8) {
		return nil, fmt.Errorf("expr: wire: short header (%d bytes)", len(data))
	}
	if string(data[:4]) != wireMagic {
		return nil, fmt.Errorf("expr: wire: bad magic %q", data[:4])
	}
	r.off = 4
	if v := r.u8(); v != wireVersion {
		return nil, fmt.Errorf("expr: wire: version %d, want %d", v, wireVersion)
	}
	nnodes := r.u32()
	nroots := r.u32()
	// Every node is at least 2 bytes and every root 4, so a length
	// check up front bounds allocation against hostile counts.
	if int64(nnodes)*2+int64(nroots)*4 > int64(len(data)) {
		return nil, fmt.Errorf("expr: wire: %d nodes + %d roots cannot fit %d bytes", nnodes, nroots, len(data))
	}
	nodes := make([]*Expr, 0, nnodes)
	arg := func(i uint32) (*Expr, error) {
		if int(i) >= len(nodes) {
			return nil, fmt.Errorf("expr: wire: node %d references forward or out-of-range operand %d", len(nodes), i)
		}
		return nodes[i], nil
	}
	for n := uint32(0); n < nnodes; n++ {
		if !r.need(2) {
			return nil, fmt.Errorf("expr: wire: truncated at node %d", n)
		}
		kind := Kind(r.u8())
		width := r.u8()
		if kind == KInvalid || kind >= numKinds {
			return nil, fmt.Errorf("expr: wire: node %d has invalid kind %d", n, kind)
		}
		boolKind := kind >= KEq // predicates and boolean forms are width 0
		if boolKind && width != 0 {
			return nil, fmt.Errorf("expr: wire: node %d: %s must have width 0, has %d", n, kind, width)
		}
		if !boolKind && (width < 1 || width > bv.MaxWidth) {
			return nil, fmt.Errorf("expr: wire: node %d: %s width %d outside [1, %d]", n, kind, width, bv.MaxWidth)
		}
		var e *Expr
		switch kind {
		case KConst:
			if !r.need(8) {
				return nil, fmt.Errorf("expr: wire: truncated constant at node %d", n)
			}
			val := r.u64()
			if val != bv.Trunc(val, uint(width)) {
				return nil, fmt.Errorf("expr: wire: node %d: constant %#x overflows width %d", n, val, width)
			}
			e = b.mk(KConst, width, val, "", nil, nil, nil)
		case KBoolConst:
			if !r.need(1) {
				return nil, fmt.Errorf("expr: wire: truncated constant at node %d", n)
			}
			val := r.u8()
			if val > 1 {
				return nil, fmt.Errorf("expr: wire: node %d: boolean constant %d", n, val)
			}
			e = b.Bool(val != 0)
		case KVar, KBoolVar:
			if !r.need(2) {
				return nil, fmt.Errorf("expr: wire: truncated variable at node %d", n)
			}
			nl := int(r.u16())
			if nl == 0 || !r.need(nl) {
				return nil, fmt.Errorf("expr: wire: truncated or empty variable name at node %d", n)
			}
			name := string(r.b[r.off : r.off+nl])
			r.off += nl
			var err error
			if e, err = b.declare(kind, width, name); err != nil {
				return nil, fmt.Errorf("expr: wire: node %d: %w", n, err)
			}
		case KExtract:
			if !r.need(2 + 4) {
				return nil, fmt.Errorf("expr: wire: truncated extract at node %d", n)
			}
			bounds := r.u16()
			hi, lo := uint(bounds>>8), uint(bounds&0xff)
			a0, err := arg(r.u32())
			if err != nil {
				return nil, err
			}
			if a0.IsBool() || hi < lo || hi >= a0.Width() {
				return nil, fmt.Errorf("expr: wire: node %d: extract [%d:%d] of %s operand width %d", n, hi, lo, a0.kind, a0.width)
			}
			if uint(width) != hi-lo+1 {
				return nil, fmt.Errorf("expr: wire: node %d: extract [%d:%d] width %d, want %d", n, hi, lo, width, hi-lo+1)
			}
			e = b.mk(KExtract, width, uint64(bounds), "", a0, nil, nil)
		default:
			na := wireArity[kind]
			if !r.need(int(na) * 4) {
				return nil, fmt.Errorf("expr: wire: truncated operands at node %d", n)
			}
			var a [3]*Expr
			for i := uint8(0); i < na; i++ {
				var err error
				if a[i], err = arg(r.u32()); err != nil {
					return nil, err
				}
			}
			if err := checkWireOp(kind, width, a, na); err != nil {
				return nil, fmt.Errorf("expr: wire: node %d: %w", n, err)
			}
			e = b.mk(kind, width, 0, "", a[0], a[1], a[2])
		}
		nodes = append(nodes, e)
	}
	roots := make([]*Expr, nroots)
	for i := range roots {
		if !r.need(4) {
			return nil, fmt.Errorf("expr: wire: truncated root table")
		}
		var err error
		if roots[i], err = arg(r.u32()); err != nil {
			return nil, err
		}
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("expr: wire: %d trailing bytes", len(data)-r.off)
	}
	return roots, nil
}

// checkWireOp validates operand sorts and widths for the uniform
// (non-leaf, non-extract) operator encodings.
func checkWireOp(kind Kind, width uint8, a [3]*Expr, na uint8) error {
	switch kind {
	case KNot, KNeg:
		if a[0].IsBool() || a[0].width != width {
			return fmt.Errorf("%s operand width %d, node width %d", kind, a[0].width, width)
		}
	case KAdd, KSub, KMul, KUDiv, KURem, KSDiv, KSRem,
		KAnd, KOr, KXor, KShl, KLShr, KAShr:
		if a[0].IsBool() || a[1].IsBool() || a[0].width != width || a[1].width != width {
			return fmt.Errorf("%s operand widths %d, %d for node width %d", kind, a[0].width, a[1].width, width)
		}
	case KConcat:
		if a[0].IsBool() || a[1].IsBool() {
			return fmt.Errorf("concat needs bit-vector operands")
		}
		if uint(a[0].width)+uint(a[1].width) != uint(width) {
			return fmt.Errorf("concat of widths %d, %d is not width %d", a[0].width, a[1].width, width)
		}
	case KZExt, KSExt:
		if a[0].IsBool() || a[0].width >= width {
			return fmt.Errorf("%s from width %d to %d", kind, a[0].width, width)
		}
	case KITE:
		if !a[0].IsBool() || a[1].IsBool() || a[2].IsBool() ||
			a[1].width != width || a[2].width != width {
			return fmt.Errorf("ite arm widths %d, %d for node width %d", a[1].width, a[2].width, width)
		}
	case KEq, KULt, KULe, KSLt, KSLe:
		if a[0].IsBool() || a[1].IsBool() || a[0].width != a[1].width {
			return fmt.Errorf("%s operand widths %d, %d", kind, a[0].width, a[1].width)
		}
	case KBoolNot:
		if !a[0].IsBool() {
			return fmt.Errorf("not needs a boolean operand")
		}
	case KBoolAnd, KBoolOr, KBoolXor:
		if !a[0].IsBool() || !a[1].IsBool() {
			return fmt.Errorf("%s needs boolean operands", kind)
		}
	case KBoolITE:
		if !a[0].IsBool() || !a[1].IsBool() || !a[2].IsBool() {
			return fmt.Errorf("boolean ite needs boolean operands")
		}
	default:
		return fmt.Errorf("unhandled kind %s", kind)
	}
	return nil
}
