package expr

import (
	"bytes"
	"math/rand"
	"testing"
)

// buildSample constructs a DAG exercising every kind, with sharing.
func buildSample(b *Builder) []*Expr {
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	p := b.BoolVar("p")
	sum := b.Add(x, y)
	roots := []*Expr{
		sum,
		b.Sub(sum, x), // shares sum
		b.Mul(x, b.Const(32, 7)),
		b.UDiv(x, y), b.URem(x, y), b.SDiv(x, y), b.SRem(x, y),
		b.And(x, y), b.Or(x, y), b.Xor(x, y),
		b.Shl(x, b.Const(32, 3)), b.LShr(x, y), b.AShr(x, y),
		b.Not(x), b.Neg(y),
		b.Concat(b.Extract(x, 15, 0), b.Extract(y, 31, 16)),
		b.ZExt(b.Extract(x, 7, 0), 64),
		b.SExt(b.Extract(y, 7, 0), 48),
		b.ITE(p, x, y),
		b.Eq(x, y), b.ULt(x, y), b.ULe(x, y), b.SLt(x, y), b.SLe(x, y),
		b.BoolAnd(p, b.BoolVar("q")),
		b.BoolOr(b.BoolNot(p), b.Eq(sum, b.Const(32, 0))),
		b.BoolXor(p, b.BoolVar("q")),
		b.BoolITE(p, b.BoolVar("q"), b.BoolNot(p)),
		b.True(), b.False(),
		b.Const(64, ^uint64(0)),
	}
	return roots
}

// TestWireRoundTrip: serialize → parse into a fresh Builder must
// reproduce digest-identical terms, and re-serializing the parsed
// roots must reproduce the exact bytes.
func TestWireRoundTrip(t *testing.T) {
	b := NewBuilder()
	roots := buildSample(b)
	blob := Serialize(roots)

	b2 := NewBuilder()
	got, err := Parse(b2, blob)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != len(roots) {
		t.Fatalf("parsed %d roots, want %d", len(got), len(roots))
	}
	for i := range roots {
		if got[i].Digest() != roots[i].Digest() {
			t.Errorf("root %d: digest %v != %v\n  orig: %s\n  got:  %s",
				i, got[i].Digest(), roots[i].Digest(), roots[i], got[i])
		}
		if got[i].Kind() != roots[i].Kind() || got[i].Width() != roots[i].Width() {
			t.Errorf("root %d: kind/width %v/%d != %v/%d", i, got[i].Kind(), got[i].Width(), roots[i].Kind(), roots[i].Width())
		}
	}
	// Variables landed in the new Builder's registry with their sorts:
	// declaring them again returns the parsed nodes.
	vars := map[string]*Expr{}
	for _, v := range VarsOf(got...) {
		vars[v.VarName()] = v
	}
	if v := vars["x"]; v == nil || b2.Var(32, "x") != v {
		t.Errorf("variable x not registered after parse")
	}
	if v := vars["p"]; v == nil || b2.BoolVar("p") != v {
		t.Errorf("boolean variable p not registered after parse")
	}
	// Byte-determinism: the same roots serialize to the same bytes from
	// either builder.
	if blob2 := Serialize(got); !bytes.Equal(blob, blob2) {
		t.Errorf("re-serialization differs: %d vs %d bytes", len(blob), len(blob2))
	}
}

// TestWireSharing: shared subterms are serialized once and come back
// pointer-shared in the parsing builder.
func TestWireSharing(t *testing.T) {
	b := NewBuilder()
	x := b.Var(16, "x")
	sum := b.Add(x, b.Const(16, 1))
	r1 := b.Mul(sum, sum)
	r2 := b.Sub(sum, x)
	blob := Serialize([]*Expr{r1, r2})

	b2 := NewBuilder()
	got, err := Parse(b2, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Arg(0) != got[0].Arg(1) {
		t.Error("shared operand not pointer-shared after parse")
	}
	if got[0].Arg(0) != got[1].Arg(0) {
		t.Error("subterm shared across roots not pointer-shared after parse")
	}
}

// TestWireVarConflict: parsing into a builder whose variable registry
// disagrees on a name's sort or width must fail cleanly.
func TestWireVarConflict(t *testing.T) {
	b := NewBuilder()
	blob := Serialize([]*Expr{b.Var(32, "v")})

	b2 := NewBuilder()
	b2.Var(16, "v")
	if _, err := Parse(b2, blob); err == nil {
		t.Error("width-conflicting variable parsed without error")
	}
	b3 := NewBuilder()
	b3.BoolVar("v")
	if _, err := Parse(b3, blob); err == nil {
		t.Error("sort-conflicting variable parsed without error")
	}
	// A consistent pre-declaration reuses the existing node.
	b4 := NewBuilder()
	v := b4.Var(32, "v")
	got, err := Parse(b4, blob)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != v {
		t.Error("consistent variable not interned to the existing node")
	}
}

// TestWireMalformed: hand-built corruptions must error, never panic.
func TestWireMalformed(t *testing.T) {
	b := NewBuilder()
	blob := Serialize(buildSample(b))

	cases := map[string][]byte{
		"empty":        {},
		"short header": blob[:8],
		"bad magic":    append([]byte("XXXX"), blob[4:]...),
		"bad version":  append([]byte("SXEW\xff"), blob[5:]...),
		"truncated":    blob[:len(blob)-2],
		"trailing":     append(append([]byte(nil), blob...), 0),
	}
	for name, data := range cases {
		if _, err := Parse(NewBuilder(), data); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
	// Every single-byte corruption must either parse to *valid* terms
	// or fail cleanly; none may panic.
	for i := 0; i < len(blob); i++ {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x41
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("byte %d flipped: parse panicked: %v", i, r)
				}
			}()
			Parse(NewBuilder(), mut)
		}()
	}
}

// TestWireRandomDAGs: randomized DAGs round-trip digest-stably.
func TestWireRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		b := NewBuilder()
		pool := []*Expr{b.Var(8, "a"), b.Var(8, "b"), b.Const(8, uint64(trial))}
		for i := 0; i < 40; i++ {
			x := pool[rng.Intn(len(pool))]
			y := pool[rng.Intn(len(pool))]
			var e *Expr
			switch rng.Intn(6) {
			case 0:
				e = b.Add(x, y)
			case 1:
				e = b.Mul(x, y)
			case 2:
				e = b.Xor(x, y)
			case 3:
				e = b.ITE(b.ULt(x, y), x, y)
			case 4:
				e = b.Not(x)
			case 5:
				e = b.Concat(b.Extract(x, 3, 0), b.Extract(y, 7, 4))
			}
			pool = append(pool, e)
		}
		roots := pool[len(pool)-5:]
		blob := Serialize(roots)
		got, err := Parse(NewBuilder(), blob)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for i := range roots {
			if got[i].Digest() != roots[i].Digest() {
				t.Fatalf("trial %d root %d: digest mismatch", trial, i)
			}
		}
	}
}

// FuzzExprWireRoundTrip is the fuzz gate of `make fuzz-smoke`: Parse
// must never panic on arbitrary bytes, anything it accepts must
// re-serialize and re-parse digest-identically, and the seeded corpus
// pins the serialize→parse→digest-equal property on real DAGs.
func FuzzExprWireRoundTrip(f *testing.F) {
	b := NewBuilder()
	f.Add(Serialize(buildSample(b)))
	f.Add(Serialize([]*Expr{b.True()}))
	f.Add(Serialize(nil))
	b2 := NewBuilder()
	x := b2.Var(64, "x")
	f.Add(Serialize([]*Expr{b2.Eq(b2.Add(x, b2.Const(64, 1)), b2.Shl(x, b2.Const(64, 1)))}))
	f.Add([]byte("SXEW\x01\x00\x00\x00\x00\x00\x00\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		roots, err := Parse(NewBuilder(), data)
		if err != nil {
			return
		}
		// Accepted input: the reconstruction must be exact under a
		// second round trip.
		blob := Serialize(roots)
		roots2, err := Parse(NewBuilder(), blob)
		if err != nil {
			t.Fatalf("re-parse of re-serialization failed: %v", err)
		}
		if len(roots2) != len(roots) {
			t.Fatalf("round trip changed root count: %d -> %d", len(roots), len(roots2))
		}
		for i := range roots {
			if roots[i].Digest() != roots2[i].Digest() {
				t.Fatalf("root %d: digest changed across round trip", i)
			}
		}
	})
}
