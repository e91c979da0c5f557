package expr

import (
	"math/rand"
	"testing"
)

// TestDigestDeepNesting pushes the structural digest through a deeply
// left-nested term: digests and values must agree across builders with
// different intern histories.
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
	env := Env{"x": 0xdeadbeef, "y": 17}
	if Eval(e1, env) != Eval(e2, env) {
		t.Error("deeply nested term evaluates differently across builders")
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
// digest and evaluate identically.
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
		er := rand.New(rand.NewSource(seed ^ 0x5a5a))
		for i := 0; i < 4; i++ {
			env := Env{"x": er.Uint64(), "y": er.Uint64()}
			if v1, v2 := Eval(e1, env), Eval(e2, env); v1 != v2 {
				t.Fatalf("seed %d env %v: values %d / %d disagree", seed, env, v1, v2)
			}
		}
	}
}

// TestDigestBoolTermsCrossBuilder covers the boolean fragment: a
// predicate built in two builders with different intern histories has
// one digest and one truth value.
func TestDigestBoolTermsCrossBuilder(t *testing.T) {
	mk := func(b *Builder) *Expr {
		x := b.Var(16, "x")
		y := b.Var(16, "y")
		p := b.BoolAnd(b.ULt(x, y), b.BoolNot(b.Eq(x, b.Const(16, 0))))
		return b.BoolOr(p, b.BoolXor(b.SLe(y, x), b.Bool(false)))
	}
	b1, b2 := NewBuilder(), NewBuilder()
	b2.Var(16, "y") // reverse intern order in b2
	b2.BoolVar("q")
	p1, p2 := mk(b1), mk(b2)
	if p1.Digest() != p2.Digest() {
		t.Error("boolean term's digest differs across builders")
	}
	for _, env := range []Env{{"x": 0, "y": 5}, {"x": 5, "y": 0}, {"x": 3, "y": 3}} {
		if EvalBool(p1, env) != EvalBool(p2, env) {
			t.Errorf("boolean term's truth value differs across builders under %v", env)
		}
	}
}

// The TestTransfer* tests below keep the names they had when terms were
// copied between per-worker builders by a transfer pass. Workers now
// share one builder, so each property is checked where it still lives:
// in two builders with different intern histories, or in a builder
// without rewrite rules against a simplifying one.

// TestTransferMultiRootMemo builds several roots over one shared
// subterm in two builders with different intern histories: each root
// keeps its digest and value, and within each builder the shared
// subterm is one node reachable from every root.
func TestTransferMultiRootMemo(t *testing.T) {
	type roots struct{ shared, r1, r2 *Expr }
	mk := func(b *Builder) roots {
		x := b.Var(32, "x")
		shared := b.Mul(b.Add(x, b.Const(32, 1)), x)
		return roots{
			shared: shared,
			r1:     b.Xor(shared, b.Const(32, 42)),
			r2:     b.ULt(shared, x),
		}
	}
	b1, b2 := NewBuilder(), NewBuilder()
	b2.Add(b2.Var(32, "pollute"), b2.Const(32, 1)) // diverge intern ids
	a, c := mk(b1), mk(b2)
	for _, r := range []roots{a, c} {
		if r.r1.Arg(0) != r.shared && r.r1.Arg(1) != r.shared {
			t.Error("first root does not reuse the shared subterm")
		}
		if r.r2.Arg(0) != r.shared && r.r2.Arg(1) != r.shared {
			t.Error("second root does not reuse the shared subterm")
		}
	}
	if a.r1.Digest() != c.r1.Digest() || a.r2.Digest() != c.r2.Digest() {
		t.Error("a root's digest differs across builders")
	}
	env := Env{"x": 77}
	if Eval(a.r1, env) != Eval(c.r1, env) || EvalBool(a.r2, env) != EvalBool(c.r2, env) {
		t.Error("a root's value differs across builders")
	}
}

// TestTransferMemoSharing: in (x+1)*(x+1) both operands are one node,
// in a fresh builder and in one with a different intern history, and
// the two products share a digest and a value.
func TestTransferMemoSharing(t *testing.T) {
	mk := func(b *Builder) *Expr {
		x := b.Var(8, "x")
		sum := b.Add(x, b.Const(8, 1))
		return b.Mul(sum, sum)
	}
	b1, b2 := NewBuilder(), NewBuilder()
	b2.Mul(b2.Var(8, "y"), b2.Const(8, 3)) // diverge intern ids
	e1, e2 := mk(b1), mk(b2)
	for _, e := range []*Expr{e1, e2} {
		if e.Arg(0) != e.Arg(1) {
			t.Error("shared subterm was not interned to one node")
		}
		if got := Eval(e, Env{"x": 4}); got != 25 {
			t.Errorf("Eval = %d, want 25", got)
		}
	}
	if e1.Digest() != e2.Digest() {
		t.Error("digest differs across builders")
	}
}

// TestTransferEquivalentToEval: the rewrite rules preserve values. A
// random term built from one choice stream in a builder without rules
// and in a simplifying one, which applies its folding and rules per
// kind, must evaluate identically.
func TestTransferEquivalentToEval(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		plain := NewBuilder()
		plain.Simplify = false
		simp := NewBuilder()
		e1 := genTerm(plain, rand.New(rand.NewSource(seed)), 5)
		e2 := genTerm(simp, rand.New(rand.NewSource(seed)), 5)
		er := rand.New(rand.NewSource(seed ^ 0x33))
		for i := 0; i < 4; i++ {
			env := Env{"x": er.Uint64(), "y": er.Uint64()}
			if v1, v2 := Eval(e1, env), Eval(e2, env); v1 != v2 {
				t.Fatalf("seed %d env %v: simplified %#x != unsimplified %#x for %v", seed, env, v2, v1, e1)
			}
		}
	}
}

// TestTransferConstantsFold: a simplifying builder folds the constants
// a rewrite exposes. x - x + 10 is a node over x in a builder without
// rules; with the rules x - x becomes 0 and the addition over it folds
// to the constant.
func TestTransferConstantsFold(t *testing.T) {
	plain := NewBuilder()
	plain.Simplify = false
	x := plain.Var(8, "x")
	if e := plain.Add(plain.Sub(x, x), plain.Const(8, 10)); e.IsConst() || Eval(e, Env{"x": 3}) != 10 {
		t.Fatalf("without rules x - x + 10 = %v, want a node over x evaluating to 10", e)
	}
	simp := NewBuilder()
	x = simp.Var(8, "x")
	if e := simp.Add(simp.Sub(x, x), simp.Const(8, 10)); !e.IsConst() || e.ConstVal() != 10 {
		t.Errorf("with rules x - x + 10 = %v, want the constant 10", e)
	}
}
