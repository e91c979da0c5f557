package expr

import "testing"

// Structural digests must be independent of the owning Builder: the
// shared query cache and its persisted file key on them across engines
// that each intern the same terms in a different order.
func TestDigestBuilderIndependent(t *testing.T) {
	mk := func(b *Builder) *Expr {
		x := b.Var(32, "x")
		y := b.Var(32, "y")
		return b.ULt(b.Add(b.Mul(x, y), b.Const(32, 7)), b.Xor(x, y))
	}
	b1, b2 := NewBuilder(), NewBuilder()
	// Pollute b2 with unrelated terms first so the intern ids diverge.
	b2.Add(b2.Var(32, "z"), b2.Const(32, 1))
	e1, e2 := mk(b1), mk(b2)
	if e1.Digest() != e2.Digest() {
		t.Errorf("digest differs across builders: %v vs %v", e1.Digest(), e2.Digest())
	}
}

// Commutative operators canonicalize operand order by builder-local
// intern id, which differs between builders; the digest must not see the
// difference.
func TestDigestCommutativeOrderInsensitive(t *testing.T) {
	b1 := NewBuilder()
	x1 := b1.Var(32, "x") // x interned first
	y1 := b1.Var(32, "y")
	b2 := NewBuilder()
	y2 := b2.Var(32, "y") // y interned first
	x2 := b2.Var(32, "x")
	cases := []struct {
		name string
		a, b *Expr
	}{
		{"add", b1.Add(x1, y1), b2.Add(x2, y2)},
		{"mul", b1.Mul(x1, y1), b2.Mul(x2, y2)},
		{"and", b1.And(x1, y1), b2.And(x2, y2)},
		{"or", b1.Or(x1, y1), b2.Or(x2, y2)},
		{"xor", b1.Xor(x1, y1), b2.Xor(x2, y2)},
		{"eq", b1.Eq(x1, y1), b2.Eq(x2, y2)},
	}
	for _, c := range cases {
		if c.a.Digest() != c.b.Digest() {
			t.Errorf("%s: digest depends on intern order: %v vs %v", c.name, c.a.Digest(), c.b.Digest())
		}
	}
}

func TestDigestDistinguishes(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	pairs := []struct {
		name string
		a, c *Expr
	}{
		{"op", b.Add(x, y), b.Mul(x, y)},
		{"operand", b.Add(x, x), b.Add(x, y)},
		{"const", b.Const(32, 1), b.Const(32, 2)},
		{"width", b.Const(16, 1), b.Const(32, 1)},
		{"var", x, y},
		{"non-commutative order", b.Sub(x, y), b.Sub(y, x)},
	}
	for _, p := range pairs {
		if p.a.Digest() == p.c.Digest() {
			t.Errorf("%s: distinct terms share a digest", p.name)
		}
	}
}

// TestTransferPreservesDigestAndValue keeps the name it had when terms
// were copied between builders by a transfer pass: an ITE term built in
// two builders with different intern orders has one digest and one value.
func TestTransferPreservesDigestAndValue(t *testing.T) {
	mk := func(b *Builder) *Expr {
		x := b.Var(32, "x")
		y := b.Var(32, "y")
		return b.ITE(b.ULt(x, y), b.Add(b.Mul(x, y), b.Const(32, 3)), b.Shl(x, b.Const(32, 2)))
	}
	b1, b2 := NewBuilder(), NewBuilder()
	b2.Var(32, "y") // different intern order in the second builder
	e1, e2 := mk(b1), mk(b2)
	if e1.Digest() != e2.Digest() {
		t.Errorf("digest differs across builders: %v vs %v", e1.Digest(), e2.Digest())
	}
	env := Env{"x": 12, "y": 99}
	if Eval(e1, env) != Eval(e2, env) {
		t.Errorf("value differs across builders: %d vs %d", Eval(e1, env), Eval(e2, env))
	}
}
