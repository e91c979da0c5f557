package expr

import (
	"fmt"

	"repro/internal/bv"
)

// Env supplies concrete values for variables during evaluation. Bit-vector
// variables map to width-truncated uint64 values; boolean variables map to
// 0 or 1. Missing variables evaluate to zero, matching how SMT models
// treat don't-care variables.
type Env map[string]uint64

// Eval computes the concrete value of e under env. Boolean results are
// reported as 0 or 1. Evaluation is memoized per call, so shared subterms
// are computed once.
func Eval(e *Expr, env Env) uint64 {
	memo := make(map[*Expr]uint64)
	return eval(e, env, memo)
}

// EvalBool computes a boolean expression under env.
func EvalBool(e *Expr, env Env) bool {
	if !e.IsBool() {
		panic("expr: EvalBool on bit-vector expression")
	}
	return Eval(e, env) != 0
}

// EvalAll reports whether every boolean expression in conds holds under
// env. One memo serves them all, so subterms they share are computed
// once.
func EvalAll(conds []*Expr, env Env) bool {
	memo := make(map[*Expr]uint64)
	for _, c := range conds {
		if !c.IsBool() {
			panic("expr: EvalAll on bit-vector expression")
		}
		if eval(c, env, memo) == 0 {
			return false
		}
	}
	return true
}

func eval(e *Expr, env Env, memo map[*Expr]uint64) uint64 {
	if v, ok := memo[e]; ok {
		return v
	}
	var v uint64
	w := e.Width()
	arg := func(i int) uint64 { return eval(e.args[i], env, memo) }
	switch e.kind {
	case KConst, KBoolConst:
		v = e.val
	case KVar:
		v = bv.Trunc(env[e.name], w)
	case KBoolVar:
		if env[e.name] != 0 {
			v = 1
		}
	case KNot:
		v = bv.Not(arg(0), w)
	case KNeg:
		v = bv.Neg(arg(0), w)
	case KAdd:
		v = bv.Add(arg(0), arg(1), w)
	case KSub:
		v = bv.Sub(arg(0), arg(1), w)
	case KMul:
		v = bv.Mul(arg(0), arg(1), w)
	case KUDiv:
		v = bv.UDiv(arg(0), arg(1), w)
	case KURem:
		v = bv.URem(arg(0), arg(1), w)
	case KSDiv:
		v = bv.SDiv(arg(0), arg(1), w)
	case KSRem:
		v = bv.SRem(arg(0), arg(1), w)
	case KAnd:
		v = arg(0) & arg(1)
	case KOr:
		v = arg(0) | arg(1)
	case KXor:
		v = arg(0) ^ arg(1)
	case KShl:
		v = bv.Shl(arg(0), arg(1), w)
	case KLShr:
		v = bv.LShr(arg(0), arg(1), w)
	case KAShr:
		v = bv.AShr(arg(0), arg(1), w)
	case KConcat:
		v = bv.Concat(arg(0), arg(1), e.args[0].Width(), e.args[1].Width())
	case KExtract:
		hi, lo := e.ExtractBounds()
		v = bv.Extract(arg(0), hi, lo)
	case KZExt:
		v = arg(0)
	case KSExt:
		v = bv.Trunc(bv.SExt(arg(0), e.args[0].Width()), w)
	case KITE, KBoolITE:
		if arg(0) != 0 {
			v = arg(1)
		} else {
			v = arg(2)
		}
	case KEq:
		v = b2u(arg(0) == arg(1))
	case KULt:
		v = b2u(bv.ULt(arg(0), arg(1), e.args[0].Width()))
	case KULe:
		v = b2u(bv.ULe(arg(0), arg(1), e.args[0].Width()))
	case KSLt:
		v = b2u(bv.SLt(arg(0), arg(1), e.args[0].Width()))
	case KSLe:
		v = b2u(bv.SLe(arg(0), arg(1), e.args[0].Width()))
	case KBoolNot:
		v = 1 - arg(0)
	case KBoolAnd:
		v = arg(0) & arg(1)
	case KBoolOr:
		v = arg(0) | arg(1)
	case KBoolXor:
		v = arg(0) ^ arg(1)
	default:
		panic(fmt.Sprintf("expr: eval of %v", e.kind))
	}
	memo[e] = v
	return v
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Walk calls fn on every node reachable from the given roots exactly once,
// in topological order (operands before users).
func Walk(roots []*Expr, fn func(*Expr)) {
	seen := make(map[*Expr]bool)
	var visit func(e *Expr)
	visit = func(e *Expr) {
		if seen[e] {
			return
		}
		seen[e] = true
		for i := 0; i < e.NumArgs(); i++ {
			visit(e.Arg(i))
		}
		fn(e)
	}
	for _, r := range roots {
		visit(r)
	}
}

// Size returns the number of distinct nodes reachable from e.
func Size(e *Expr) int {
	n := 0
	Walk([]*Expr{e}, func(*Expr) { n++ })
	return n
}

// VarsOf returns the variables occurring in the given expressions.
func VarsOf(roots ...*Expr) []*Expr {
	var out []*Expr
	Walk(roots, func(e *Expr) {
		if e.kind == KVar || e.kind == KBoolVar {
			out = append(out, e)
		}
	})
	return out
}
