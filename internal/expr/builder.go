package expr

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"repro/internal/bv"
)

// Builder creates and interns expressions. The symbolic execution engine
// owns one per analysis, and every worker of a parallel run interns into
// it. A new Builder is for one goroutine; after Share it is safe for
// concurrent use. Nodes are immutable once interned, so reading them
// never takes a lock.
type Builder struct {
	// mu, non-nil once Share has been called, guards table, shift,
	// nextID and vars. A Builder that was never shared takes no lock.
	mu *sync.Mutex

	// table is an open-addressing hash set of every interned node, probed
	// linearly from home(h0); its length is a power of two and at most
	// 3/4 of its slots are full.
	table  []*Expr
	shift  uint   // 64 - log2(len(table))
	seed   uint64 // scrambles home, so no input can choose its probe chains
	nextID uint32
	vars   map[string]*Expr

	// Simplify enables the local rewriting rules beyond constant folding.
	// It is on by default; the ablation benchmarks switch it off.
	Simplify bool

	truE, falsE *Expr
}

// The table starts small because many short-lived builders (one per
// concolic run or daemon job) intern only a few hundred terms.
const (
	initialTableBits = 8
	initialTableSize = 1 << initialTableBits
)

// home returns the slot at which the probe for a node with digest lane
// h0 starts. The digest is the same in every process, and a constant's
// is an invertible mix of its value, so a hostile program could pick
// constants that share a slot; scrambling with the builder's random
// seed and taking the top bits of a multiplicative hash makes the slot
// unpredictable. Only probe order depends on the seed: ids and digests
// do not.
func (b *Builder) home(h0 uint64) uint64 {
	return ((h0 ^ b.seed) * 0x9e3779b97f4a7c15) >> b.shift
}

// NewBuilder returns an empty Builder with simplification enabled.
func NewBuilder() *Builder {
	b := &Builder{
		table:    make([]*Expr, initialTableSize),
		shift:    64 - initialTableBits,
		seed:     rand.Uint64(),
		vars:     make(map[string]*Expr),
		Simplify: true,
	}
	b.truE = b.mk(KBoolConst, 0, 1, "", nil, nil, nil)
	b.falsE = b.mk(KBoolConst, 0, 0, "", nil, nil, nil)
	return b
}

// Share makes b safe for concurrent use: from then on interning and
// variable declaration take a mutex. Call it before b is handed to a
// second goroutine; a Builder is never unshared.
func (b *Builder) Share() {
	if b.mu == nil {
		b.mu = new(sync.Mutex)
	}
}

// mk returns the interned node with exactly these fields, creating it on
// a miss. A slot matches only on the full structure, operand pointers in
// order included, so neither a digest collision nor a commutative operand
// swap ever merges two nodes. A shared Builder probes and inserts under
// b.mu; the digest is computed before taking it.
func (b *Builder) mk(kind Kind, width uint8, val uint64, name string, a0, a1, a2 *Expr) *Expr {
	h0, h1 := nodeDigest(kind, width, val, name, a0, a1, a2)
	args := [3]*Expr{a0, a1, a2}
	if b.mu != nil {
		b.mu.Lock()
	}
	mask := uint64(len(b.table) - 1)
	i := b.home(h0)
	for e := b.table[i]; e != nil; e = b.table[i] {
		if e.h0 == h0 && e.h1 == h1 && e.kind == kind && e.width == width && e.val == val &&
			e.args == args && e.name == name {
			if b.mu != nil {
				b.mu.Unlock()
			}
			return e
		}
		i = (i + 1) & mask
	}
	var nargs uint8
	for nargs < 3 && args[nargs] != nil {
		nargs++
	}
	e := &Expr{
		kind: kind, width: width, val: val, name: name,
		args: args, nargs: nargs,
		id: b.nextID, h0: h0, h1: h1,
	}
	b.nextID++
	b.table[i] = e
	if uint64(b.nextID)*4 > uint64(len(b.table))*3 {
		b.grow()
	}
	if b.mu != nil {
		b.mu.Unlock()
	}
	return e
}

// grow doubles the table, re-placing each node by its stored h0.
func (b *Builder) grow() {
	old := b.table
	b.table = make([]*Expr, 2*len(old))
	b.shift--
	mask := uint64(len(b.table) - 1)
	for _, e := range old {
		if e == nil {
			continue
		}
		i := b.home(e.h0)
		for b.table[i] != nil {
			i = (i + 1) & mask
		}
		b.table[i] = e
	}
}

// Const returns the width-w constant v (truncated to w bits).
func (b *Builder) Const(w uint, v uint64) *Expr {
	bv.CheckWidth(w)
	return b.mk(KConst, uint8(w), bv.Trunc(v, w), "", nil, nil, nil)
}

// Var returns the width-w bit-vector variable with the given name,
// creating it on first use. Re-using a name with a different width or
// sort panics: variable names identify solver variables globally.
func (b *Builder) Var(w uint, name string) *Expr {
	bv.CheckWidth(w)
	e, err := b.declare(KVar, uint8(w), name)
	if err != nil {
		panic(err)
	}
	return e
}

// BoolVar returns the boolean variable with the given name.
func (b *Builder) BoolVar(name string) *Expr {
	e, err := b.declare(KBoolVar, 0, name)
	if err != nil {
		panic(err)
	}
	return e
}

// declare returns the variable of the given kind (KVar or KBoolVar),
// width and name, creating it on first use, or an error when the name is
// already declared with another width or sort. A rejected declaration
// leaves its node interned, under no name.
func (b *Builder) declare(kind Kind, width uint8, name string) (*Expr, error) {
	e := b.mk(kind, width, 0, name, nil, nil, nil)
	if b.mu != nil {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	if prev, ok := b.vars[name]; ok {
		if prev != e {
			return nil, fmt.Errorf("expr: variable %q redeclared as %v width %d (was %v width %d)", name, kind, width, prev.kind, prev.width)
		}
		return e, nil
	}
	b.vars[name] = e
	return e, nil
}

// Bool returns the boolean constant v.
func (b *Builder) Bool(v bool) *Expr {
	if v {
		return b.truE
	}
	return b.falsE
}

// True returns the boolean constant true.
func (b *Builder) True() *Expr { return b.truE }

// False returns the boolean constant false.
func (b *Builder) False() *Expr { return b.falsE }

func checkBV2(op string, x, y *Expr) {
	if x.IsBool() || y.IsBool() {
		panic("expr: " + op + " needs bit-vector operands")
	}
	if x.width != y.width {
		panic(fmt.Sprintf("expr: %s width mismatch %d vs %d", op, x.width, y.width))
	}
}

// binary builds a width-preserving binary bit-vector operation with
// constant folding, delegating algebraic rules to simplifyBinary.
func (b *Builder) binary(kind Kind, x, y *Expr, fold func(a, c uint64, w uint) uint64) *Expr {
	checkBV2(kind.String(), x, y)
	w := x.Width()
	if x.kind == KConst && y.kind == KConst {
		return b.Const(w, fold(x.val, y.val, w))
	}
	if b.Simplify {
		if e := b.simplifyBinary(kind, x, y); e != nil {
			return e
		}
	}
	return b.mk(kind, x.width, 0, "", x, y, nil)
}

// Add returns x+y.
func (b *Builder) Add(x, y *Expr) *Expr { return b.binary(KAdd, x, y, bv.Add) }

// Sub returns x-y.
func (b *Builder) Sub(x, y *Expr) *Expr { return b.binary(KSub, x, y, bv.Sub) }

// Mul returns x*y.
func (b *Builder) Mul(x, y *Expr) *Expr { return b.binary(KMul, x, y, bv.Mul) }

// UDiv returns the unsigned quotient x/y (SMT-LIB semantics for y=0).
func (b *Builder) UDiv(x, y *Expr) *Expr { return b.binary(KUDiv, x, y, bv.UDiv) }

// URem returns the unsigned remainder x%y.
func (b *Builder) URem(x, y *Expr) *Expr { return b.binary(KURem, x, y, bv.URem) }

// SDiv returns the signed quotient.
func (b *Builder) SDiv(x, y *Expr) *Expr { return b.binary(KSDiv, x, y, bv.SDiv) }

// SRem returns the signed remainder.
func (b *Builder) SRem(x, y *Expr) *Expr { return b.binary(KSRem, x, y, bv.SRem) }

// And returns the bitwise conjunction x&y.
func (b *Builder) And(x, y *Expr) *Expr {
	return b.binary(KAnd, x, y, func(a, c uint64, w uint) uint64 { return a & c })
}

// Or returns the bitwise disjunction x|y.
func (b *Builder) Or(x, y *Expr) *Expr {
	return b.binary(KOr, x, y, func(a, c uint64, w uint) uint64 { return a | c })
}

// Xor returns the bitwise exclusive-or x^y.
func (b *Builder) Xor(x, y *Expr) *Expr {
	return b.binary(KXor, x, y, func(a, c uint64, w uint) uint64 { return bv.Trunc(a^c, w) })
}

// Shl returns x shifted left by y.
func (b *Builder) Shl(x, y *Expr) *Expr { return b.binary(KShl, x, y, bv.Shl) }

// LShr returns x logically shifted right by y.
func (b *Builder) LShr(x, y *Expr) *Expr { return b.binary(KLShr, x, y, bv.LShr) }

// AShr returns x arithmetically shifted right by y.
func (b *Builder) AShr(x, y *Expr) *Expr { return b.binary(KAShr, x, y, bv.AShr) }

// Not returns the bitwise complement of x.
func (b *Builder) Not(x *Expr) *Expr {
	if x.IsBool() {
		panic("expr: bvnot needs a bit-vector operand")
	}
	if x.kind == KConst {
		return b.Const(x.Width(), bv.Not(x.val, x.Width()))
	}
	if b.Simplify && x.kind == KNot {
		return x.args[0] // ~~x = x
	}
	return b.mk(KNot, x.width, 0, "", x, nil, nil)
}

// Neg returns the two's-complement negation of x.
func (b *Builder) Neg(x *Expr) *Expr {
	if x.IsBool() {
		panic("expr: bvneg needs a bit-vector operand")
	}
	if x.kind == KConst {
		return b.Const(x.Width(), bv.Neg(x.val, x.Width()))
	}
	if b.Simplify && x.kind == KNeg {
		return x.args[0] // -(-x) = x
	}
	return b.mk(KNeg, x.width, 0, "", x, nil, nil)
}

// Concat returns hi:lo, a value of width hi.Width()+lo.Width().
func (b *Builder) Concat(hi, lo *Expr) *Expr {
	if hi.IsBool() || lo.IsBool() {
		panic("expr: concat needs bit-vector operands")
	}
	w := hi.Width() + lo.Width()
	if w > bv.MaxWidth {
		panic(fmt.Sprintf("expr: concat width %d exceeds %d", w, bv.MaxWidth))
	}
	if hi.kind == KConst && lo.kind == KConst {
		return b.Const(w, bv.Concat(hi.val, lo.val, hi.Width(), lo.Width()))
	}
	if b.Simplify {
		// concat(0, x) = zext(x).
		if hi.kind == KConst && hi.val == 0 {
			return b.ZExt(lo, w)
		}
		// concat(extract(x,hi1,lo1), extract(x,lo1-1,lo2)) = extract(x,hi1,lo2).
		if hi.kind == KExtract && lo.kind == KExtract && hi.args[0] == lo.args[0] {
			h1, l1 := hi.ExtractBounds()
			h2, l2 := lo.ExtractBounds()
			if l1 == h2+1 {
				return b.Extract(hi.args[0], h1, l2)
			}
		}
	}
	return b.mk(KConcat, uint8(w), 0, "", hi, lo, nil)
}

// Extract returns bits hi..lo (inclusive) of x.
func (b *Builder) Extract(x *Expr, hi, lo uint) *Expr {
	if x.IsBool() {
		panic("expr: extract needs a bit-vector operand")
	}
	if hi < lo || hi >= x.Width() {
		panic(fmt.Sprintf("expr: extract [%d:%d] out of range for width %d", hi, lo, x.Width()))
	}
	w := hi - lo + 1
	if w == x.Width() {
		return x
	}
	if x.kind == KConst {
		return b.Const(w, bv.Extract(x.val, hi, lo))
	}
	if b.Simplify {
		switch x.kind {
		case KExtract:
			h0, l0 := x.ExtractBounds()
			_ = h0
			return b.Extract(x.args[0], l0+hi, l0+lo)
		case KConcat:
			loW := x.args[1].Width()
			if lo >= loW {
				return b.Extract(x.args[0], hi-loW, lo-loW)
			}
			if hi < loW {
				return b.Extract(x.args[1], hi, lo)
			}
		case KZExt:
			innerW := x.args[0].Width()
			if hi < innerW {
				return b.Extract(x.args[0], hi, lo)
			}
			if lo >= innerW {
				return b.Const(w, 0)
			}
		case KSExt:
			innerW := x.args[0].Width()
			if hi < innerW {
				return b.Extract(x.args[0], hi, lo)
			}
		}
	}
	return b.mk(KExtract, uint8(w), uint64(hi)<<8|uint64(lo), "", x, nil, nil)
}

// ZExt zero-extends x to width w (a no-op if w equals x's width).
func (b *Builder) ZExt(x *Expr, w uint) *Expr {
	return b.extend(KZExt, x, w)
}

// SExt sign-extends x to width w (a no-op if w equals x's width).
func (b *Builder) SExt(x *Expr, w uint) *Expr {
	return b.extend(KSExt, x, w)
}

func (b *Builder) extend(kind Kind, x *Expr, w uint) *Expr {
	if x.IsBool() {
		panic("expr: extend needs a bit-vector operand")
	}
	bv.CheckWidth(w)
	if w < x.Width() {
		panic(fmt.Sprintf("expr: cannot extend width %d to %d", x.Width(), w))
	}
	if w == x.Width() {
		return x
	}
	if x.kind == KConst {
		if kind == KZExt {
			return b.Const(w, x.val)
		}
		return b.Const(w, bv.Trunc(bv.SExt(x.val, x.Width()), w))
	}
	if b.Simplify {
		if x.kind == kind {
			// zext(zext(x)) = zext(x); likewise for sext.
			return b.extend(kind, x.args[0], w)
		}
		if kind == KSExt && x.kind == KZExt && x.Width() > x.args[0].Width() {
			// The top bit of a proper zero-extension is 0, so sign- and
			// zero-extending it agree.
			return b.extend(KZExt, x.args[0], w)
		}
	}
	return b.mk(kind, uint8(w), 0, "", x, nil, nil)
}

// ITE returns "if cond then t else f" for bit-vector t and f.
func (b *Builder) ITE(cond, t, f *Expr) *Expr {
	if !cond.IsBool() {
		panic("expr: ite condition must be boolean")
	}
	if t.IsBool() != f.IsBool() {
		panic("expr: ite arms have different sorts")
	}
	if t.IsBool() {
		return b.BoolITE(cond, t, f)
	}
	checkBV2("ite", t, f)
	if cond.kind == KBoolConst {
		if cond.val != 0 {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	if b.Simplify {
		// ite(c, ite(c, a, _), f) = ite(c, a, f) and the mirror case.
		if t.kind == KITE && t.args[0] == cond {
			t = t.args[1]
		}
		if f.kind == KITE && f.args[0] == cond {
			f = f.args[2]
		}
		if t == f {
			return t
		}
	}
	return b.mk(KITE, t.width, 0, "", cond, t, f)
}

// Eq returns the equality predicate x == y (bit-vector or boolean operands).
func (b *Builder) Eq(x, y *Expr) *Expr {
	if x.IsBool() != y.IsBool() {
		panic("expr: = operands have different sorts")
	}
	if x.IsBool() {
		// Boolean equality is the complement of xor.
		return b.BoolNot(b.BoolXor(x, y))
	}
	checkBV2("=", x, y)
	if x == y {
		return b.truE
	}
	if x.kind == KConst && y.kind == KConst {
		return b.Bool(x.val == y.val)
	}
	if b.Simplify {
		if e := b.simplifyEq(x, y); e != nil {
			return e
		}
	}
	// Canonical operand order keeps the intern table small.
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KEq, 0, 0, "", x, y, nil)
}

// compare builds one of the four ordering predicates.
func (b *Builder) compare(kind Kind, x, y *Expr, fold func(a, c uint64, w uint) bool) *Expr {
	checkBV2(kind.String(), x, y)
	if x.kind == KConst && y.kind == KConst {
		return b.Bool(fold(x.val, y.val, x.Width()))
	}
	if x == y {
		// x<x is false; x<=x is true.
		return b.Bool(kind == KULe || kind == KSLe)
	}
	if b.Simplify {
		if e := b.simplifyCompare(kind, x, y); e != nil {
			return e
		}
	}
	return b.mk(kind, 0, 0, "", x, y, nil)
}

// ULt returns the unsigned predicate x < y.
func (b *Builder) ULt(x, y *Expr) *Expr { return b.compare(KULt, x, y, bv.ULt) }

// ULe returns the unsigned predicate x <= y.
func (b *Builder) ULe(x, y *Expr) *Expr { return b.compare(KULe, x, y, bv.ULe) }

// SLt returns the signed predicate x < y.
func (b *Builder) SLt(x, y *Expr) *Expr { return b.compare(KSLt, x, y, bv.SLt) }

// SLe returns the signed predicate x <= y.
func (b *Builder) SLe(x, y *Expr) *Expr { return b.compare(KSLe, x, y, bv.SLe) }

// UGt returns x > y unsigned, expressed as y < x.
func (b *Builder) UGt(x, y *Expr) *Expr { return b.ULt(y, x) }

// UGe returns x >= y unsigned, expressed as y <= x.
func (b *Builder) UGe(x, y *Expr) *Expr { return b.ULe(y, x) }

// SGe returns x >= y signed.
func (b *Builder) SGe(x, y *Expr) *Expr { return b.SLe(y, x) }

// Ne returns the disequality predicate x != y.
func (b *Builder) Ne(x, y *Expr) *Expr { return b.BoolNot(b.Eq(x, y)) }

// BoolNot returns the boolean negation of x.
func (b *Builder) BoolNot(x *Expr) *Expr {
	if !x.IsBool() {
		panic("expr: not needs a boolean operand")
	}
	if x.kind == KBoolConst {
		return b.Bool(x.val == 0)
	}
	if x.kind == KBoolNot {
		return x.args[0]
	}
	return b.mk(KBoolNot, 0, 0, "", x, nil, nil)
}

// BoolAnd returns the boolean conjunction x && y.
func (b *Builder) BoolAnd(x, y *Expr) *Expr {
	if !x.IsBool() || !y.IsBool() {
		panic("expr: and needs boolean operands")
	}
	switch {
	case x.kind == KBoolConst:
		if x.val == 0 {
			return b.falsE
		}
		return y
	case y.kind == KBoolConst:
		if y.val == 0 {
			return b.falsE
		}
		return x
	case x == y:
		return x
	}
	if b.Simplify {
		if x.kind == KBoolNot && x.args[0] == y || y.kind == KBoolNot && y.args[0] == x {
			return b.falsE
		}
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KBoolAnd, 0, 0, "", x, y, nil)
}

// BoolOr returns the boolean disjunction x || y.
func (b *Builder) BoolOr(x, y *Expr) *Expr {
	if !x.IsBool() || !y.IsBool() {
		panic("expr: or needs boolean operands")
	}
	switch {
	case x.kind == KBoolConst:
		if x.val != 0 {
			return b.truE
		}
		return y
	case y.kind == KBoolConst:
		if y.val != 0 {
			return b.truE
		}
		return x
	case x == y:
		return x
	}
	if b.Simplify {
		if x.kind == KBoolNot && x.args[0] == y || y.kind == KBoolNot && y.args[0] == x {
			return b.truE
		}
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KBoolOr, 0, 0, "", x, y, nil)
}

// BoolXor returns the boolean exclusive-or of x and y.
func (b *Builder) BoolXor(x, y *Expr) *Expr {
	if !x.IsBool() || !y.IsBool() {
		panic("expr: xor needs boolean operands")
	}
	switch {
	case x.kind == KBoolConst:
		if x.val != 0 {
			return b.BoolNot(y)
		}
		return y
	case y.kind == KBoolConst:
		if y.val != 0 {
			return b.BoolNot(x)
		}
		return x
	case x == y:
		return b.falsE
	}
	if x.id > y.id {
		x, y = y, x
	}
	return b.mk(KBoolXor, 0, 0, "", x, y, nil)
}

// BoolITE returns "if cond then t else f" for boolean arms.
func (b *Builder) BoolITE(cond, t, f *Expr) *Expr {
	if !cond.IsBool() || !t.IsBool() || !f.IsBool() {
		panic("expr: boolean ite needs boolean operands")
	}
	if cond.kind == KBoolConst {
		if cond.val != 0 {
			return t
		}
		return f
	}
	if t == f {
		return t
	}
	// ite(c, true, f) = c || f, etc.: lower to connectives eagerly.
	if t.kind == KBoolConst {
		if t.val != 0 {
			return b.BoolOr(cond, f)
		}
		return b.BoolAnd(b.BoolNot(cond), f)
	}
	if f.kind == KBoolConst {
		if f.val != 0 {
			return b.BoolOr(b.BoolNot(cond), t)
		}
		return b.BoolAnd(cond, t)
	}
	return b.mk(KBoolITE, 0, 0, "", cond, t, f)
}

// Implies returns x -> y.
func (b *Builder) Implies(x, y *Expr) *Expr { return b.BoolOr(b.BoolNot(x), y) }

// BoolToBV returns a width-w bit-vector that is 1 when c holds and 0
// otherwise.
func (b *Builder) BoolToBV(c *Expr, w uint) *Expr {
	return b.ITE(c, b.Const(w, 1), b.Const(w, 0))
}

// NonZero returns the predicate x != 0.
func (b *Builder) NonZero(x *Expr) *Expr {
	return b.Ne(x, b.Const(x.Width(), 0))
}
