package expr

import (
	"math/rand"
	"testing"
)

// TestDigestDeepNesting pushes the structural digest and Transfer
// through a deeply left-nested term: digests must agree across builders
// with different intern histories, and Transfer must neither blow the
// stack nor change digest or value.
func TestDigestDeepNesting(t *testing.T) {
	const depth = 2000
	mk := func(b *Builder) *Expr {
		e := b.Var(32, "x")
		for i := 0; i < depth; i++ {
			switch i % 3 {
			case 0:
				e = b.Add(e, b.Const(32, uint64(i)))
			case 1:
				e = b.Xor(b.Mul(e, b.Const(32, 3)), b.Var(32, "y"))
			default:
				e = b.Sub(e, b.LShr(e, b.Const(32, 1)))
			}
		}
		return e
	}
	b1, b2 := NewBuilder(), NewBuilder()
	b2.Add(b2.Var(32, "pollute"), b2.Const(32, 9)) // diverge intern ids
	e1, e2 := mk(b1), mk(b2)
	if e1.Digest() != e2.Digest() {
		t.Error("deeply nested digest differs across builders")
	}

	dst := NewBuilder()
	memo := make(map[*Expr]*Expr)
	out := Transfer(dst, e1, memo)
	if out.Digest() != e1.Digest() {
		t.Error("transfer changed the digest of a deep term")
	}
	env := Env{"x": 0xdeadbeef, "y": 17}
	if Eval(out, env) != Eval(e1, env) {
		t.Error("transfer changed the value of a deep term")
	}
}

// TestDigestCommutativeNested checks order-insensitivity of commutative
// operators when the swapped operands sit deep inside a larger term, not
// at the root.
func TestDigestCommutativeNested(t *testing.T) {
	mk := func(b *Builder, swap bool) *Expr {
		x := b.Var(32, "x")
		y := b.Var(32, "y")
		inner := b.Add(b.Mul(x, y), b.And(y, b.Const(32, 255)))
		if swap {
			inner = b.Add(b.And(b.Const(32, 255), y), b.Mul(y, x))
		}
		return b.ITE(b.ULt(inner, x), b.Or(inner, y), b.Not(inner))
	}
	b1, b2 := NewBuilder(), NewBuilder()
	b2.Var(32, "y") // reverse intern order in b2
	e1, e2 := mk(b1, false), mk(b2, true)
	if e1.Digest() != e2.Digest() {
		t.Error("nested commutative operand order leaks into the digest")
	}
	env := Env{"x": 123456, "y": 987654}
	if Eval(e1, env) != Eval(e2, env) {
		t.Error("commutative variants evaluate differently")
	}
}

// genTerm builds a random 32-bit term over x and y, deterministically
// from r, using the same operator choices regardless of the builder's
// intern history.
func genTerm(b *Builder, r *rand.Rand, depth int) *Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(3) {
		case 0:
			return b.Var(32, "x")
		case 1:
			return b.Var(32, "y")
		default:
			return b.Const(32, r.Uint64())
		}
	}
	x := genTerm(b, r, depth-1)
	y := genTerm(b, r, depth-1)
	switch r.Intn(12) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Sub(x, y)
	case 2:
		return b.Mul(x, y)
	case 3:
		return b.And(x, y)
	case 4:
		return b.Or(x, y)
	case 5:
		return b.Xor(x, y)
	case 6:
		return b.Shl(x, b.Const(32, uint64(r.Intn(32))))
	case 7:
		return b.UDiv(x, y)
	case 8:
		return b.SRem(x, y)
	case 9:
		return b.ZExt(b.Extract(x, 15, 4), 32)
	case 10:
		return b.SExt(b.Extract(x, 7, 0), 32)
	default:
		return b.ITE(b.SLt(x, y), x, y)
	}
}

// TestDigestRandomTermsCrossBuilder: random terms built twice from the
// same choice stream in differently polluted builders must share a
// digest, transfer losslessly, and evaluate identically.
func TestDigestRandomTermsCrossBuilder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		b1 := NewBuilder()
		b2 := NewBuilder()
		for i := 0; i < int(seed%5); i++ {
			b2.Var(32, "p") // vary intern history
			b2.Const(32, uint64(i))
		}
		e1 := genTerm(b1, rand.New(rand.NewSource(seed)), 5)
		e2 := genTerm(b2, rand.New(rand.NewSource(seed)), 5)
		if e1.Digest() != e2.Digest() {
			t.Fatalf("seed %d: digest differs across builders", seed)
		}
		dst := NewBuilder()
		out := Transfer(dst, e1, make(map[*Expr]*Expr))
		if out.Digest() != e1.Digest() {
			t.Fatalf("seed %d: transfer changed the digest", seed)
		}
		er := rand.New(rand.NewSource(seed ^ 0x5a5a))
		for i := 0; i < 4; i++ {
			env := Env{"x": er.Uint64(), "y": er.Uint64()}
			v1, v2, vo := Eval(e1, env), Eval(e2, env), Eval(out, env)
			if v1 != v2 || v1 != vo {
				t.Fatalf("seed %d env %v: values %d / %d / %d disagree", seed, env, v1, v2, vo)
			}
		}
	}
}

// TestTransferBoolTerms covers the boolean fragment: digests and truth
// values must survive a transfer.
func TestTransferBoolTerms(t *testing.T) {
	src := NewBuilder()
	x := src.Var(16, "x")
	y := src.Var(16, "y")
	p := src.BoolAnd(src.ULt(x, y), src.BoolNot(src.Eq(x, src.Const(16, 0))))
	p = src.BoolOr(p, src.BoolXor(src.SLe(y, x), src.Bool(false)))
	dst := NewBuilder()
	out := Transfer(dst, p, make(map[*Expr]*Expr))
	if out.Digest() != p.Digest() {
		t.Error("bool transfer changed the digest")
	}
	for _, env := range []Env{{"x": 0, "y": 5}, {"x": 5, "y": 0}, {"x": 3, "y": 3}} {
		if EvalBool(out, env) != EvalBool(p, env) {
			t.Errorf("bool transfer changed the truth value under %v", env)
		}
	}
}

// TestTransferMultiRootMemo transfers several roots sharing subterms
// through one memo: the shared subterm must land on a single destination
// node reachable from both transferred roots.
func TestTransferMultiRootMemo(t *testing.T) {
	src := NewBuilder()
	x := src.Var(32, "x")
	shared := src.Mul(src.Add(x, src.Const(32, 1)), x)
	r1 := src.Xor(shared, src.Const(32, 42))
	r2 := src.ULt(shared, x)
	dst := NewBuilder()
	memo := make(map[*Expr]*Expr)
	o1 := Transfer(dst, r1, memo)
	o2 := Transfer(dst, r2, memo)
	if memo[shared] == nil {
		t.Fatal("shared subterm missing from the memo")
	}
	if o1.Arg(0) != memo[shared] && o1.Arg(1) != memo[shared] {
		t.Error("first root does not reuse the memoized shared subterm")
	}
	if o2.Arg(0) != memo[shared] && o2.Arg(1) != memo[shared] {
		t.Error("second root does not reuse the memoized shared subterm")
	}
	env := Env{"x": 77}
	if Eval(o1, env) != Eval(r1, env) || EvalBool(o2, env) != EvalBool(r2, env) {
		t.Error("multi-root transfer changed values")
	}
}

// TestTransferEquivalentToEval: a term built without the rewrite rules
// and transferred into a simplifying builder passes every node through
// rebuild, which applies the destination's folding and rules per kind;
// the result must evaluate like the source, for random expressions.
func TestTransferEquivalentToEval(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 100; iter++ {
		b := NewBuilder()
		plain := NewBuilder()
		plain.Simplify = false
		_, e := randomExpr(r, b, plain, []string{"a", "b"}, 16, 4)
		out := Transfer(NewBuilder(), e, make(map[*Expr]*Expr))
		for i := 0; i < 4; i++ {
			env := Env{"a": r.Uint64(), "b": r.Uint64()}
			if got, want := Eval(out, env), Eval(e, env); got != want {
				t.Fatalf("transfer %#x != source %#x for %v under %v", got, want, e, env)
			}
		}
	}
}

// TestTransferConstantsFold: rebuild folds the constants a rewrite in
// the destination builder exposes. x - x is a node in a builder without
// rules; rebuilt in a simplifying one it becomes 0, and the addition
// over it folds to the constant.
func TestTransferConstantsFold(t *testing.T) {
	plain := NewBuilder()
	plain.Simplify = false
	x := plain.Var(8, "x")
	e := plain.Add(plain.Sub(x, x), plain.Const(8, 10))
	if e.IsConst() {
		t.Fatalf("source already folded: %v", e)
	}
	out := Transfer(NewBuilder(), e, make(map[*Expr]*Expr))
	if !out.IsConst() || out.ConstVal() != 10 {
		t.Errorf("transfer into a simplifying builder did not fold: %v", out)
	}
}
