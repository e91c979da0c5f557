package expr

import "fmt"

// Transfer rebuilds e inside builder dst, which may be a different Builder
// than the one that created e. The parallel engine uses this to re-home a
// forked state onto the claiming worker's builder: Builders are not
// goroutine-safe, so a state's terms must live in the builder of the
// worker that executes it.
//
// memo caches source-node -> destination-node mappings; pass the same map
// for all terms of one state so shared subterms are rebuilt once. Reading
// the source nodes is safe while the source builder keeps interning new
// terms, because nodes are immutable after creation.
//
// The result is structurally equal to e modulo the Builder's commutative
// operand canonicalization (which orders by builder-local intern id), so
// the structural digest (hash.go) is preserved exactly.
func Transfer(dst *Builder, e *Expr, memo map[*Expr]*Expr) *Expr {
	if out, ok := memo[e]; ok {
		return out
	}
	var out *Expr
	switch e.Kind() {
	case KConst:
		out = dst.Const(e.Width(), e.ConstVal())
	case KBoolConst:
		out = dst.Bool(e.ConstVal() != 0)
	case KVar:
		out = dst.Var(e.Width(), e.VarName())
	case KBoolVar:
		out = dst.BoolVar(e.VarName())
	default:
		args := make([]*Expr, e.NumArgs())
		for i := range args {
			args[i] = Transfer(dst, e.Arg(i), memo)
		}
		out = rebuild(dst, e, args)
	}
	memo[e] = out
	return out
}

// rebuild constructs a node of e's kind over new arguments.
func rebuild(b *Builder, e *Expr, a []*Expr) *Expr {
	switch e.Kind() {
	case KNot:
		return b.Not(a[0])
	case KNeg:
		return b.Neg(a[0])
	case KAdd:
		return b.Add(a[0], a[1])
	case KSub:
		return b.Sub(a[0], a[1])
	case KMul:
		return b.Mul(a[0], a[1])
	case KUDiv:
		return b.UDiv(a[0], a[1])
	case KURem:
		return b.URem(a[0], a[1])
	case KSDiv:
		return b.SDiv(a[0], a[1])
	case KSRem:
		return b.SRem(a[0], a[1])
	case KAnd:
		return b.And(a[0], a[1])
	case KOr:
		return b.Or(a[0], a[1])
	case KXor:
		return b.Xor(a[0], a[1])
	case KShl:
		return b.Shl(a[0], a[1])
	case KLShr:
		return b.LShr(a[0], a[1])
	case KAShr:
		return b.AShr(a[0], a[1])
	case KConcat:
		return b.Concat(a[0], a[1])
	case KExtract:
		hi, lo := e.ExtractBounds()
		return b.Extract(a[0], hi, lo)
	case KZExt:
		return b.ZExt(a[0], e.Width())
	case KSExt:
		return b.SExt(a[0], e.Width())
	case KITE:
		return b.ITE(a[0], a[1], a[2])
	case KEq:
		return b.Eq(a[0], a[1])
	case KULt:
		return b.ULt(a[0], a[1])
	case KULe:
		return b.ULe(a[0], a[1])
	case KSLt:
		return b.SLt(a[0], a[1])
	case KSLe:
		return b.SLe(a[0], a[1])
	case KBoolNot:
		return b.BoolNot(a[0])
	case KBoolAnd:
		return b.BoolAnd(a[0], a[1])
	case KBoolOr:
		return b.BoolOr(a[0], a[1])
	case KBoolXor:
		return b.BoolXor(a[0], a[1])
	case KBoolITE:
		return b.BoolITE(a[0], a[1], a[2])
	}
	panic(fmt.Sprintf("expr: rebuild of %v", e.Kind()))
}
