package expr

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bv"
)

func TestInterning(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	if b.Add(x, y) != b.Add(x, y) {
		t.Error("structurally equal terms not interned to the same pointer")
	}
	if b.Const(8, 5) != b.Const(8, 5) {
		t.Error("constants not interned")
	}
	if b.Const(8, 5) == b.Const(16, 5) {
		t.Error("constants of different widths interned together")
	}
}

func TestVarRedeclarationPanics(t *testing.T) {
	b := NewBuilder()
	b.Var(32, "x")
	defer func() {
		if recover() == nil {
			t.Error("redeclaring x at a different width did not panic")
		}
	}()
	b.Var(16, "x")
}

func TestConstantFolding(t *testing.T) {
	b := NewBuilder()
	cases := []struct {
		got  *Expr
		want uint64
	}{
		{b.Add(b.Const(8, 200), b.Const(8, 100)), 44},
		{b.Mul(b.Const(8, 16), b.Const(8, 16)), 0},
		{b.UDiv(b.Const(8, 7), b.Const(8, 0)), 0xff},
		{b.Shl(b.Const(16, 1), b.Const(16, 12)), 0x1000},
		{b.Concat(b.Const(8, 0xab), b.Const(8, 0xcd)), 0xabcd},
		{b.Extract(b.Const(16, 0xabcd), 15, 8), 0xab},
		{b.SExt(b.Const(8, 0x80), 16), 0xff80},
		{b.ZExt(b.Const(8, 0x80), 16), 0x0080},
	}
	for i, c := range cases {
		if c.got.Kind() != KConst {
			t.Errorf("case %d: not folded to a constant: %v", i, c.got)
			continue
		}
		if c.got.ConstVal() != c.want {
			t.Errorf("case %d: folded to %#x, want %#x", i, c.got.ConstVal(), c.want)
		}
	}
}

func TestSimplifications(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	zero := b.Const(32, 0)
	ones := b.Const(32, bv.Mask(32))

	if b.Add(x, zero) != x {
		t.Error("x+0 != x")
	}
	if b.Sub(x, x) != zero {
		t.Error("x-x != 0")
	}
	if b.And(x, zero) != zero {
		t.Error("x&0 != 0")
	}
	if b.And(x, ones) != x {
		t.Error("x&~0 != x")
	}
	if b.Or(x, x) != x {
		t.Error("x|x != x")
	}
	if b.Xor(x, x) != zero {
		t.Error("x^x != 0")
	}
	if b.Not(b.Not(x)) != x {
		t.Error("~~x != x")
	}
	if got := b.Mul(x, b.Const(32, 8)); got.Kind() != KShl {
		t.Errorf("x*8 did not become a shift: %v", got)
	}
	if b.Eq(x, x) != b.True() {
		t.Error("x==x != true")
	}
	if b.ULt(x, zero) != b.False() {
		t.Error("x <u 0 != false")
	}
	if b.ITE(b.True(), x, zero) != x {
		t.Error("ite(true,x,0) != x")
	}
	// Constant re-association: (x+1)+2 = x+3.
	s := b.Add(b.Add(x, b.Const(32, 1)), b.Const(32, 2))
	if s != b.Add(x, b.Const(32, 3)) {
		t.Errorf("(x+1)+2 = %v, want x+3", s)
	}
	// zext(x)==big-constant is unsatisfiable.
	if b.Eq(b.ZExt(b.Var(8, "c"), 32), b.Const(32, 0x100)) != b.False() {
		t.Error("zext8(c)==0x100 should simplify to false")
	}
	// Boolean rules.
	p := b.BoolVar("p")
	if b.BoolAnd(p, b.BoolNot(p)) != b.False() {
		t.Error("p && !p != false")
	}
	if b.BoolOr(p, b.BoolNot(p)) != b.True() {
		t.Error("p || !p != true")
	}
	if b.BoolNot(b.BoolNot(p)) != p {
		t.Error("!!p != p")
	}
}

func TestExtractOfConcat(t *testing.T) {
	b := NewBuilder()
	hi := b.Var(8, "h")
	lo := b.Var(8, "l")
	c := b.Concat(hi, lo)
	if b.Extract(c, 15, 8) != hi {
		t.Error("extract hi of concat did not cancel")
	}
	if b.Extract(c, 7, 0) != lo {
		t.Error("extract lo of concat did not cancel")
	}
	// Reassembling adjacent extracts gives back the original.
	x := b.Var(32, "x")
	if b.Concat(b.Extract(x, 31, 16), b.Extract(x, 15, 0)) != x {
		t.Error("concat of adjacent extracts did not collapse")
	}
}

func TestEval(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	y := b.Var(8, "y")
	e := b.Add(b.Mul(x, y), b.Const(8, 3))
	if got := Eval(e, Env{"x": 5, "y": 7}); got != 38 {
		t.Errorf("eval(5*7+3) = %d, want 38", got)
	}
	p := b.ULt(x, y)
	if !EvalBool(p, Env{"x": 5, "y": 7}) {
		t.Error("5 <u 7 should hold")
	}
	if EvalBool(p, Env{"x": 7, "y": 5}) {
		t.Error("7 <u 5 should not hold")
	}
}

func TestPrinting(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	got := b.Add(x, b.Const(8, 1)).String()
	if got != "(bvadd x #x01)" {
		t.Errorf("String() = %q", got)
	}
	if s := b.True().String(); s != "true" {
		t.Errorf("true prints as %q", s)
	}
}

func TestWalkAndSize(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	e := b.Add(b.Mul(x, x), b.Mul(x, x)) // shared subterm
	// Nodes: x, x*x, (x*x)+(x*x). Sharing means 3 distinct nodes...
	// except add(a,a) may simplify; it doesn't, so expect 3.
	if n := Size(e); n != 3 {
		t.Errorf("Size = %d, want 3", n)
	}
	vars := VarsOf(e)
	if len(vars) != 1 || vars[0] != x {
		t.Errorf("VarsOf = %v", vars)
	}
}

// randomExpr builds a random expression over the given variables using
// builder b, mirroring every construction step on builder plain (with
// simplification off). It returns both results.
func randomExpr(r *rand.Rand, b, plain *Builder, vars []string, w uint, depth int) (*Expr, *Expr) {
	if depth == 0 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			v := vars[r.Intn(len(vars))]
			return b.Var(w, v), plain.Var(w, v)
		}
		c := r.Uint64()
		return b.Const(w, c), plain.Const(w, c)
	}
	op := r.Intn(14)
	x1, x2 := randomExpr(r, b, plain, vars, w, depth-1)
	y1, y2 := randomExpr(r, b, plain, vars, w, depth-1)
	switch op {
	case 0:
		return b.Add(x1, y1), plain.Add(x2, y2)
	case 1:
		return b.Sub(x1, y1), plain.Sub(x2, y2)
	case 2:
		return b.Mul(x1, y1), plain.Mul(x2, y2)
	case 3:
		return b.UDiv(x1, y1), plain.UDiv(x2, y2)
	case 4:
		return b.URem(x1, y1), plain.URem(x2, y2)
	case 5:
		return b.SDiv(x1, y1), plain.SDiv(x2, y2)
	case 6:
		return b.SRem(x1, y1), plain.SRem(x2, y2)
	case 7:
		return b.And(x1, y1), plain.And(x2, y2)
	case 8:
		return b.Or(x1, y1), plain.Or(x2, y2)
	case 9:
		return b.Xor(x1, y1), plain.Xor(x2, y2)
	case 10:
		return b.Shl(x1, y1), plain.Shl(x2, y2)
	case 11:
		return b.LShr(x1, y1), plain.LShr(x2, y2)
	case 12:
		return b.AShr(x1, y1), plain.AShr(x2, y2)
	default:
		c1 := b.ULt(x1, y1)
		c2 := plain.ULt(x2, y2)
		z1, z2 := randomExpr(r, b, plain, vars, w, depth-1)
		return b.ITE(c1, x1, z1), plain.ITE(c2, x2, z2)
	}
}

// TestSimplifierSoundness is the core property test: for random
// expressions, the simplifying builder and a non-simplifying builder must
// agree under random concrete environments.
func TestSimplifierSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vars := []string{"a", "b", "c"}
	for _, w := range []uint{1, 7, 8, 16, 32, 33, 64} {
		for iter := 0; iter < 300; iter++ {
			b := NewBuilder()
			plain := NewBuilder()
			plain.Simplify = false
			e1, e2 := randomExpr(r, b, plain, vars, w, 4)
			for trial := 0; trial < 8; trial++ {
				env := Env{}
				for _, v := range vars {
					env[v] = r.Uint64()
				}
				g1, g2 := Eval(e1, env), Eval(e2, env)
				if g1 != g2 {
					t.Fatalf("width %d: simplified %v = %#x, plain %v = %#x under %v",
						w, e1, g1, e2, g2, env)
				}
			}
		}
	}
}

// TestComparisonSimplifierSoundness does the same for the predicates.
func TestComparisonSimplifierSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	vars := []string{"a", "b"}
	mk := func(bl *Builder, x, y *Expr, op int) *Expr {
		switch op {
		case 0:
			return bl.Eq(x, y)
		case 1:
			return bl.ULt(x, y)
		case 2:
			return bl.ULe(x, y)
		case 3:
			return bl.SLt(x, y)
		default:
			return bl.SLe(x, y)
		}
	}
	for _, w := range []uint{1, 8, 32} {
		for iter := 0; iter < 400; iter++ {
			b := NewBuilder()
			plain := NewBuilder()
			plain.Simplify = false
			x1, x2 := randomExpr(r, b, plain, vars, w, 3)
			y1, y2 := randomExpr(r, b, plain, vars, w, 3)
			op := r.Intn(5)
			p1 := mk(b, x1, y1, op)
			p2 := mk(plain, x2, y2, op)
			for trial := 0; trial < 8; trial++ {
				env := Env{"a": r.Uint64(), "b": r.Uint64()}
				if EvalBool(p1, env) != EvalBool(p2, env) {
					t.Fatalf("width %d op %d: %v vs %v disagree under %v", w, op, p1, p2, env)
				}
			}
		}
	}
}

// TestEvalMatchesBV uses testing/quick to confirm Eval agrees with the bv
// kernel on single operations.
func TestEvalMatchesBV(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	f := func(a, c uint32) bool {
		env := Env{"x": uint64(a), "y": uint64(c)}
		return Eval(b.Add(x, y), env) == bv.Add(uint64(a), uint64(c), 32) &&
			Eval(b.Mul(x, y), env) == bv.Mul(uint64(a), uint64(c), 32) &&
			Eval(b.UDiv(x, y), env) == bv.UDiv(uint64(a), uint64(c), 32) &&
			Eval(b.AShr(x, y), env) == bv.AShr(uint64(a), uint64(c), 32)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoolToBV(t *testing.T) {
	b := NewBuilder()
	p := b.BoolVar("p")
	e := b.BoolToBV(p, 8)
	if Eval(e, Env{"p": 1}) != 1 || Eval(e, Env{"p": 0}) != 0 {
		t.Error("BoolToBV misbehaves")
	}
}

// TestEvalAll: the conjunction of the conditions under one environment;
// true for none.
func TestEvalAll(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	lt := b.ULt(x, b.Const(8, 10))
	ne := b.Ne(x, b.Const(8, 3))
	for _, c := range []struct {
		conds []*Expr
		env   Env
		want  bool
	}{
		{nil, Env{}, true},
		{[]*Expr{lt, ne}, Env{"x": 4}, true},
		{[]*Expr{lt, ne}, Env{"x": 3}, false},
		{[]*Expr{lt, ne}, Env{"x": 12}, false},
	} {
		if got := EvalAll(c.conds, c.env); got != c.want {
			t.Errorf("EvalAll(%v, %v) = %v, want %v", c.conds, c.env, got, c.want)
		}
	}
}
