package smt

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/smt/sat"
)

// ---- gate primitives -------------------------------------------------
//
// Each primitive returns a literal (possibly a constant literal when the
// inputs are constant) and adds the Tseitin definition clauses for any
// fresh variable it introduces.

func (s *Solver) isTrue(l sat.Lit) bool  { return l == s.truth }
func (s *Solver) isFalse(l sat.Lit) bool { return l == s.truth.Not() }

func (s *Solver) gateAnd(a, b sat.Lit) sat.Lit {
	switch {
	case s.isFalse(a) || s.isFalse(b):
		return s.constLit(false)
	case s.isTrue(a):
		return b
	case s.isTrue(b):
		return a
	case a == b:
		return a
	case a == b.Not():
		return s.constLit(false)
	}
	c := s.fresh()
	s.add(a.Not(), b.Not(), c)
	s.add(a, c.Not())
	s.add(b, c.Not())
	return c
}

func (s *Solver) gateOr(a, b sat.Lit) sat.Lit {
	return s.gateAnd(a.Not(), b.Not()).Not()
}

func (s *Solver) gateXor(a, b sat.Lit) sat.Lit {
	switch {
	case s.isFalse(a):
		return b
	case s.isFalse(b):
		return a
	case s.isTrue(a):
		return b.Not()
	case s.isTrue(b):
		return a.Not()
	case a == b:
		return s.constLit(false)
	case a == b.Not():
		return s.constLit(true)
	}
	c := s.fresh()
	s.add(a.Not(), b.Not(), c.Not())
	s.add(a, b, c.Not())
	s.add(a.Not(), b, c)
	s.add(a, b.Not(), c)
	return c
}

// gateMux returns sel ? t : f.
func (s *Solver) gateMux(sel, t, f sat.Lit) sat.Lit {
	switch {
	case s.isTrue(sel):
		return t
	case s.isFalse(sel):
		return f
	case t == f:
		return t
	}
	c := s.fresh()
	s.add(sel.Not(), t.Not(), c)
	s.add(sel.Not(), t, c.Not())
	s.add(sel, f.Not(), c)
	s.add(sel, f, c.Not())
	// Redundant but propagation-strengthening: t=f forces c.
	s.add(t.Not(), f.Not(), c)
	s.add(t, f, c.Not())
	return c
}

// gateMaj returns the majority of three literals (the carry function).
func (s *Solver) gateMaj(a, b, cin sat.Lit) sat.Lit {
	// Constant shortcuts fall out of gateAnd/gateOr.
	if s.isFalse(cin) {
		return s.gateAnd(a, b)
	}
	if s.isTrue(cin) {
		return s.gateOr(a, b)
	}
	c := s.fresh()
	s.add(a.Not(), b.Not(), c)
	s.add(a.Not(), cin.Not(), c)
	s.add(b.Not(), cin.Not(), c)
	s.add(a, b, c.Not())
	s.add(a, cin, c.Not())
	s.add(b, cin, c.Not())
	return c
}

// ---- word-level circuits ----------------------------------------------

// scratch returns *buf resized to n, for a blaster temporary that dies
// before the next use of the same buffer and never reaches s.bits.
func scratch(buf *[]sat.Lit, n int) []sat.Lit {
	if cap(*buf) < n {
		*buf = make([]sat.Lit, n)
	}
	return (*buf)[:n]
}

// inverted returns the bitwise complement of a in the s.inv scratch.
func (s *Solver) inverted(a []sat.Lit) []sat.Lit {
	inv := scratch(&s.inv, len(a))
	for i, l := range a {
		inv[i] = l.Not()
	}
	return inv
}

// adder writes the sum bits of a + b + cin into sum, which may alias a
// or b (a fresh slice when sum is nil), and returns them with the final
// carry-out.
func (s *Solver) adder(sum, a, b []sat.Lit, cin sat.Lit) ([]sat.Lit, sat.Lit) {
	if sum == nil {
		sum = make([]sat.Lit, len(a))
	}
	c := cin
	for i := range sum {
		ai, bi := a[i], b[i]
		axb := s.gateXor(ai, bi)
		sum[i] = s.gateXor(axb, c)
		c = s.gateMaj(ai, bi, c)
	}
	return sum, c
}

func (s *Solver) negate(a []sat.Lit) []sat.Lit {
	sum, _ := s.adder(nil, s.inverted(a), s.constVec(uint64(1), uint(len(a))), s.constLit(false))
	return sum
}

func (s *Solver) constVec(v uint64, w uint) []sat.Lit {
	out := make([]sat.Lit, w)
	for i := range out {
		out[i] = s.constLit(v>>uint(i)&1 == 1)
	}
	return out
}

// mul returns the low len(a) bits of a*b (len(a) == len(b)).
func (s *Solver) mul(a, b []sat.Lit) []sat.Lit {
	n := len(a)
	acc := s.constVec(0, uint(n))
	pp := scratch(&s.pp, n)
	for i := 0; i < n; i++ {
		// Partial product: (a << i) & b[i], truncated to n bits.
		for j := 0; j < n; j++ {
			if j < i {
				pp[j] = s.constLit(false)
			} else {
				pp[j] = s.gateAnd(a[j-i], b[i])
			}
		}
		s.adder(acc, acc, pp, s.constLit(false))
	}
	return acc
}

// ultLit returns the literal of the unsigned predicate a < b, via the
// borrow of a - b: a < b iff the carry-out of a + ~b + 1 is 0.
func (s *Solver) ultLit(a, b []sat.Lit) sat.Lit {
	inv := s.inverted(b)
	_, cout := s.adder(inv, a, inv, s.constLit(true)) // only the carry is kept
	return cout.Not()
}

func (s *Solver) sltLit(a, b []sat.Lit) sat.Lit {
	n := len(a)
	sa, sb := a[n-1], b[n-1]
	diff := s.gateXor(sa, sb)
	// Same signs: unsigned comparison decides; different signs: a<b iff a
	// is the negative one.
	return s.gateMux(diff, sa, s.ultLit(a, b))
}

func (s *Solver) eqLit(a, b []sat.Lit) sat.Lit {
	acc := s.constLit(true)
	for i := range a {
		acc = s.gateAnd(acc, s.gateXor(a[i], b[i]).Not())
	}
	return acc
}

// shift builds a barrel shifter. kind: 0 = shl, 1 = lshr, 2 = ashr.
func (s *Solver) shift(a, amt []sat.Lit, kind int) []sat.Lit {
	n := len(a)
	fill := s.constLit(false)
	if kind == 2 {
		fill = a[n-1]
	}
	cur := a
	// Stages for shift-amount bits that keep the shift in range; they
	// alternate between the two s.sh scratch rows.
	stages := 0
	for 1<<stages < n {
		stages++
	}
	for k := 0; k < stages && k < len(amt); k++ {
		sh := 1 << k
		next := scratch(&s.sh[k%2], n)
		for i := 0; i < n; i++ {
			var from sat.Lit
			switch kind {
			case 0: // shl: bit i comes from i-sh
				if i-sh >= 0 {
					from = cur[i-sh]
				} else {
					from = s.constLit(false)
				}
			default: // shr: bit i comes from i+sh
				if i+sh < n {
					from = cur[i+sh]
				} else {
					from = fill
				}
			}
			next[i] = s.gateMux(amt[k], from, cur[i])
		}
		cur = next
	}
	// If any higher shift-amount bit is set the result saturates.
	over := s.constLit(false)
	for k := stages; k < len(amt); k++ {
		over = s.gateOr(over, amt[k])
	}
	// Also: for widths that are not powers of two, amounts in
	// [n, 2^stages) escape the stage test; compare amt >= n directly.
	if n&(n-1) != 0 {
		geN := s.ultLit(amt, s.constVec(uint64(n), uint(len(amt)))).Not()
		over = s.gateOr(over, geN)
	}
	out := make([]sat.Lit, n)
	for i := range out {
		out[i] = s.gateMux(over, fill, cur[i])
	}
	return out
}

// udivurem constrains fresh vectors q, r with a = q*b + r (exactly, in
// 2w-bit arithmetic), r < b when b != 0, and the SMT-LIB b == 0 cases.
func (s *Solver) udivurem(a, b []sat.Lit) (q, r []sat.Lit) {
	n := len(a)
	q = make([]sat.Lit, n)
	r = make([]sat.Lit, n)
	v := s.freshVars(2 * n)
	for i := range q {
		q[i], r[i] = sat.MkLit(v+2*i, false), sat.MkLit(v+2*i+1, false)
	}
	zero := s.constLit(false)
	ext := func(v []sat.Lit) []sat.Lit {
		out := make([]sat.Lit, 2*n)
		copy(out, v)
		for i := n; i < 2*n; i++ {
			out[i] = zero
		}
		return out
	}
	// nz <-> b != 0.
	nz := s.constLit(false)
	for _, l := range b {
		nz = s.gateOr(nz, l)
	}
	// Exact relation at 2w bits: zext(q)*zext(b) + zext(r) == zext(a).
	prod := s.mul(ext(q), ext(b))
	sum, _ := s.adder(prod, prod, ext(r), zero)
	rel := s.eqLit(sum, ext(a))
	rlb := s.ultLit(r, b)
	s.add(nz.Not(), rel)
	s.add(nz.Not(), rlb)
	// b == 0: q = all-ones, r = a.
	for i := 0; i < n; i++ {
		s.add(nz, q[i])             // q[i] = 1
		s.add(nz, r[i].Not(), a[i]) // r[i] -> a[i]
		s.add(nz, r[i], a[i].Not()) // a[i] -> r[i]
	}
	return q, r
}

// ---- blasting ----------------------------------------------------------

// blastBool returns the literal representing a boolean expression.
func (s *Solver) blastBool(e *expr.Expr) sat.Lit {
	if l, ok := s.lits[e]; ok {
		return l
	}
	var l sat.Lit
	switch e.Kind() {
	case expr.KBoolConst:
		l = s.constLit(e.ConstVal() != 0)
	case expr.KBoolVar:
		l = s.fresh()
		s.vars = append(s.vars, e)
	case expr.KBoolNot:
		l = s.blastBool(e.Arg(0)).Not()
	case expr.KBoolAnd:
		l = s.gateAnd(s.blastBool(e.Arg(0)), s.blastBool(e.Arg(1)))
	case expr.KBoolOr:
		l = s.gateOr(s.blastBool(e.Arg(0)), s.blastBool(e.Arg(1)))
	case expr.KBoolXor:
		l = s.gateXor(s.blastBool(e.Arg(0)), s.blastBool(e.Arg(1)))
	case expr.KBoolITE:
		l = s.gateMux(s.blastBool(e.Arg(0)), s.blastBool(e.Arg(1)), s.blastBool(e.Arg(2)))
	case expr.KEq:
		a, b := s.blast(e.Arg(0)), s.blast(e.Arg(1))
		l = s.eqLit(a, b)
	case expr.KULt:
		l = s.ultLit(s.blast(e.Arg(0)), s.blast(e.Arg(1)))
	case expr.KULe:
		l = s.ultLit(s.blast(e.Arg(1)), s.blast(e.Arg(0))).Not()
	case expr.KSLt:
		l = s.sltLit(s.blast(e.Arg(0)), s.blast(e.Arg(1)))
	case expr.KSLe:
		l = s.sltLit(s.blast(e.Arg(1)), s.blast(e.Arg(0))).Not()
	default:
		panic(fmt.Sprintf("smt: blastBool of %v", e.Kind()))
	}
	s.lits[e] = l
	return l
}

// blast returns the literal vector (LSB first) of a bit-vector expression.
func (s *Solver) blast(e *expr.Expr) []sat.Lit {
	if v, ok := s.bits[e]; ok {
		return v
	}
	w := e.Width()
	var out []sat.Lit
	switch e.Kind() {
	case expr.KConst:
		out = s.constVec(e.ConstVal(), w)
	case expr.KVar:
		out = make([]sat.Lit, w)
		v := s.freshVars(int(w))
		for i := range out {
			out[i] = sat.MkLit(v+i, false)
		}
		s.vars = append(s.vars, e)
	case expr.KNot:
		a := s.blast(e.Arg(0))
		out = make([]sat.Lit, w)
		for i := range out {
			out[i] = a[i].Not()
		}
	case expr.KNeg:
		out = s.negate(s.blast(e.Arg(0)))
	case expr.KAdd:
		out, _ = s.adder(nil, s.blast(e.Arg(0)), s.blast(e.Arg(1)), s.constLit(false))
	case expr.KSub:
		a, b := s.blast(e.Arg(0)), s.blast(e.Arg(1))
		out, _ = s.adder(nil, a, s.inverted(b), s.constLit(true))
	case expr.KMul:
		out = s.mul(s.blast(e.Arg(0)), s.blast(e.Arg(1)))
	case expr.KUDiv:
		q, _ := s.udivurem(s.blast(e.Arg(0)), s.blast(e.Arg(1)))
		out = q
	case expr.KURem:
		_, r := s.udivurem(s.blast(e.Arg(0)), s.blast(e.Arg(1)))
		out = r
	case expr.KSDiv, expr.KSRem:
		out = s.blastSigned(e)
	case expr.KAnd:
		out = s.bitwise(e, s.gateAnd)
	case expr.KOr:
		out = s.bitwise(e, s.gateOr)
	case expr.KXor:
		out = s.bitwise(e, s.gateXor)
	case expr.KShl:
		out = s.shift(s.blast(e.Arg(0)), s.blast(e.Arg(1)), 0)
	case expr.KLShr:
		out = s.shift(s.blast(e.Arg(0)), s.blast(e.Arg(1)), 1)
	case expr.KAShr:
		out = s.shift(s.blast(e.Arg(0)), s.blast(e.Arg(1)), 2)
	case expr.KConcat:
		hi, lo := s.blast(e.Arg(0)), s.blast(e.Arg(1))
		out = append(append([]sat.Lit(nil), lo...), hi...)
	case expr.KExtract:
		hi, lo := e.ExtractBounds()
		a := s.blast(e.Arg(0))
		out = append([]sat.Lit(nil), a[lo:hi+1]...)
	case expr.KZExt:
		a := s.blast(e.Arg(0))
		out = append([]sat.Lit(nil), a...)
		for uint(len(out)) < w {
			out = append(out, s.constLit(false))
		}
	case expr.KSExt:
		a := s.blast(e.Arg(0))
		out = append([]sat.Lit(nil), a...)
		sign := a[len(a)-1]
		for uint(len(out)) < w {
			out = append(out, sign)
		}
	case expr.KITE:
		out = s.muxVec(s.blastBool(e.Arg(0)), s.blast(e.Arg(1)), s.blast(e.Arg(2)))
	default:
		panic(fmt.Sprintf("smt: blast of %v", e.Kind()))
	}
	if uint(len(out)) != w {
		panic(fmt.Sprintf("smt: blasted %v to %d bits, want %d", e.Kind(), len(out), w))
	}
	s.bits[e] = out
	return out
}

// bitwise applies gate to each bit pair of e's two operands.
func (s *Solver) bitwise(e *expr.Expr, gate func(a, b sat.Lit) sat.Lit) []sat.Lit {
	a, b := s.blast(e.Arg(0)), s.blast(e.Arg(1))
	out := make([]sat.Lit, len(a))
	for i := range out {
		out[i] = gate(a[i], b[i])
	}
	return out
}

// blastSigned lowers sdiv/srem to the unsigned divider with sign
// correction, matching SMT-LIB (and internal/bv) semantics including
// division by zero.
func (s *Solver) blastSigned(e *expr.Expr) []sat.Lit {
	a := s.blast(e.Arg(0))
	b := s.blast(e.Arg(1))
	n := len(a)
	sa, sb := a[n-1], b[n-1]
	absA := s.muxVec(sa, s.negate(a), a)
	absB := s.muxVec(sb, s.negate(b), b)
	q, r := s.udivurem(absA, absB)
	if e.Kind() == expr.KSDiv {
		negQ := s.gateXor(sa, sb)
		return s.muxVec(negQ, s.negate(q), q)
	}
	// srem: sign follows the dividend.
	return s.muxVec(sa, s.negate(r), r)
}

func (s *Solver) muxVec(sel sat.Lit, t, f []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(t))
	for i := range out {
		out[i] = s.gateMux(sel, t[i], f[i])
	}
	return out
}
