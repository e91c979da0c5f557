package expr

import (
	"math/rand"
	"sync"
	"testing"
)

type namedTerm struct {
	name string
	e    *Expr
}

// digestGoldenTerms builds one term per leaf kind and operator family in
// a non-simplifying builder, so each term keeps the shape written here.
func digestGoldenTerms() []namedTerm {
	b := NewBuilder()
	b.Simplify = false
	x, y := b.Var(32, "x"), b.Var(32, "y")
	p := b.BoolVar("p")
	c := b.Const(32, 0xdeadbeef)
	lt := b.ULt(x, y)
	return []namedTerm{
		{"const32", c},
		{"const8", b.Const(8, 0x7f)},
		{"const1", b.Const(1, 1)},
		{"true", b.True()},
		{"var", x},
		{"boolvar", p},
		{"neg", b.Neg(x)},
		{"sub", b.Sub(x, c)},
		{"udiv", b.UDiv(x, y)},
		{"shl", b.Shl(x, y)},
		{"add_xy", b.Add(x, y)},
		{"add_yx", b.Add(y, x)},
		{"extract", b.Extract(x, 15, 8)},
		{"concat_sext", b.SExt(b.Concat(b.Extract(x, 7, 0), b.Extract(y, 7, 0)), 32)},
		{"ite", b.ITE(lt, x, y)},
		{"eq_sle", b.BoolAnd(b.Eq(x, c), b.SLe(y, c))},
		{"bool", b.BoolITE(p, b.BoolNot(lt), b.BoolXor(p, lt))},
	}
}

// The structural digest is persisted: solver-cache files, exploration
// snapshots and wire blobs key on it across processes and releases. These
// values pin it, not just its cross-builder equality.
func TestDigestGolden(t *testing.T) {
	want := map[string]Digest{
		"const32":     {0xa5fcd0430d9a651f, 0x1f61ce7ee73a9fb2},
		"const8":      {0x9dbb64f04f92bcbb, 0x520355eb189b3ade},
		"const1":      {0xe5097f12746ba851, 0x35670599e51b9029},
		"true":        {0x871f212260a8976a, 0xea8a654a48d66329},
		"var":         {0x2cd548cb548c730e, 0xcabbc91765f894ba},
		"boolvar":     {0xa524bfe7a78cdcb9, 0x95d6ab1c5e027c46},
		"neg":         {0x9135a47c78de1d3b, 0x6b20fb898f2ea9ed},
		"sub":         {0x67b3b5e35bd31433, 0xf5a61a6a8df92b64},
		"udiv":        {0x687e1b380729a6e5, 0xa303e394a96903a7},
		"shl":         {0x4d45d17496f5ee5d, 0x98faebf656eeda32},
		"add_xy":      {0x5bed7b35f67fbed9, 0xc2dd7da3810f090a},
		"add_yx":      {0x5bed7b35f67fbed9, 0xc2dd7da3810f090a},
		"extract":     {0x725dbe06cb1bb009, 0x3c1e21acdc247f31},
		"concat_sext": {0x5b6e6029526f4843, 0xda12f070b480adbb},
		"ite":         {0xd2cfcfd4a6114b7f, 0xbbdba39efd85c3b5},
		"eq_sle":      {0x7480d4ecf1e56e2a, 0x1faaacc2993bfbc6},
		"bool":        {0xab7097b3e8594e7f, 0x789f470b1398b777},
	}
	for _, c := range digestGoldenTerms() {
		if got := c.e.Digest(); got != want[c.name] {
			t.Errorf("%s %v: digest %#016x/%#016x, want %#016x/%#016x", c.name, c.e, got.H0, got.H1, want[c.name].H0, want[c.name].H1)
		}
	}
}

// buildRandomTerm interns one pseudo-random term of depth <= d over the
// leaves; rng drives every choice, so replaying the same seed rebuilds
// the same term. Every node it interns is reachable from the result.
func buildRandomTerm(b *Builder, rng *rand.Rand, leaves []*Expr, d int) *Expr {
	if d == 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			return b.Const(32, uint64(rng.Intn(1<<12)))
		}
		return leaves[rng.Intn(len(leaves))]
	}
	x := buildRandomTerm(b, rng, leaves, d-1)
	y := buildRandomTerm(b, rng, leaves, d-1)
	switch rng.Intn(8) {
	case 0:
		return b.Add(x, y)
	case 1:
		return b.Mul(x, y)
	case 2:
		return b.Sub(x, y)
	case 3:
		return b.Xor(x, y)
	case 4:
		return b.ITE(b.ULt(x, y), x, y)
	case 5:
		return b.ZExt(b.Extract(b.And(x, y), 15, 0), 32)
	case 6:
		return b.Concat(b.Extract(x, 23, 0), b.Xor(b.Extract(y, 7, 0), b.Const(8, uint64(rng.Intn(256)))))
	default:
		return b.Or(b.Not(x), y)
	}
}

// The intern table grows many times over a run; every rebuild of a term
// must still find the node interned first, ids stay dense in creation
// order, and equal digests never merge structurally distinct terms.
func TestInternTableIdentity(t *testing.T) {
	b := NewBuilder()
	b.Simplify = false
	var leaves []*Expr
	for _, n := range []string{"a", "b", "c", "d"} {
		leaves = append(leaves, b.Var(32, n))
	}
	const seed, terms = 7, 20000
	rng := rand.New(rand.NewSource(seed))
	var first []*Expr
	for i := 0; i < terms; i++ {
		first = append(first, buildRandomTerm(b, rng, leaves, 5))
	}
	n := b.nextID
	if n < 100000 {
		t.Fatalf("only %d nodes interned; want a table that grows past 100k", n)
	}
	rng = rand.New(rand.NewSource(seed))
	for i := 0; i < terms; i++ {
		if e := buildRandomTerm(b, rng, leaves, 5); e != first[i] {
			t.Fatalf("term %d rebuilt as a new node: %v", i, e)
		}
	}
	if b.nextID != n {
		t.Fatalf("rebuilding interned %d new nodes", b.nextID-n)
	}
	checkTableIDs(t, b)

	// Commutative operand order: equal digests, distinct nodes.
	x, y := leaves[0], leaves[1]
	xy, yx := b.Add(x, y), b.Add(y, x)
	if xy == yx || xy.Digest() != yx.Digest() {
		t.Fatalf("add(x,y) %p %v and add(y,x) %p %v: want distinct nodes with one digest", xy, xy.Digest(), yx, yx.Digest())
	}
	if b.Add(x, y) != xy || b.Add(y, x) != yx {
		t.Fatal("a commutative rebuild returned the other operand order's node")
	}
}

// checkTableIDs checks that b's table holds each issued id in
// [0, nextID) once, and that every operand was created before the node
// that uses it.
func checkTableIDs(t *testing.T, b *Builder) {
	t.Helper()
	ids := make([]bool, b.nextID)
	for _, e := range b.table {
		if e == nil {
			continue
		}
		if e.id >= b.nextID || ids[e.id] {
			t.Fatalf("id %d out of range or reused", e.id)
		}
		ids[e.id] = true
		for i := 0; i < e.NumArgs(); i++ {
			if e.args[i].id >= e.id {
				t.Fatalf("node %d has operand %d created after it", e.id, e.args[i].id)
			}
		}
	}
	for id, ok := range ids {
		if !ok {
			t.Fatalf("id %d issued but not in the table", id)
		}
	}
}

// A shared builder interns concurrently: goroutines declaring the same
// variables in different orders and building overlapping random terms
// get one pointer per structure, ids stay unique and dense, and a later
// serial rebuild interns nothing new. Run it under -race.
func TestSharedBuilderConcurrentIntern(t *testing.T) {
	const goroutines, span, stride = 8, 300, 100
	b := NewBuilder()
	b.Share()
	names := []string{"a", "b", "c", "d", "e", "f"}
	leaves := make([][]*Expr, goroutines)
	terms := make([][]*Expr, goroutines) // terms[g][i] is seed g*stride+i
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(names))
			leaves[g] = make([]*Expr, len(names))
			for _, i := range order {
				leaves[g][i] = b.Var(32, names[i])
				b.BoolVar("p" + names[i])
			}
			for i := 0; i < span; i++ {
				rng := rand.New(rand.NewSource(int64(g*stride + i)))
				terms[g] = append(terms[g], buildRandomTerm(b, rng, leaves[g], 5))
			}
		}()
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for i := range names {
			if leaves[g][i] != leaves[0][i] {
				t.Fatalf("goroutine %d declared %q as a second node", g, names[i])
			}
		}
	}
	bySeed := map[int]*Expr{}
	for g := range terms {
		for i, e := range terms[g] {
			seed := g*stride + i
			if prev, ok := bySeed[seed]; ok && prev != e {
				t.Fatalf("seed %d built as two nodes: %p and %p", seed, prev, e)
			}
			bySeed[seed] = e
		}
	}
	checkTableIDs(t, b)
	n := b.nextID
	for seed, e := range bySeed {
		if got := buildRandomTerm(b, rand.New(rand.NewSource(int64(seed))), leaves[0], 5); got != e {
			t.Fatalf("seed %d rebuilt as a new node", seed)
		}
	}
	if b.nextID != n {
		t.Fatalf("serial rebuild interned %d new nodes", b.nextID-n)
	}
}

// A warm hit, width-8 and width-1 constants included, interns without
// allocating.
func TestInternAllocs(t *testing.T) {
	b := NewBuilder()
	x, y := b.Var(32, "x"), b.Var(32, "y")
	b.Add(b.Mul(x, y), b.Const(32, 7))
	var v uint64
	cases := []struct {
		name string
		f    func()
	}{
		{"hit", func() { b.Add(b.Mul(x, y), b.Const(32, 7)) }},
		{"const8", func() { v++; b.Const(8, v) }},
		{"const1", func() { v++; b.Const(1, v) }},
	}
	for _, c := range cases {
		for i := 0; i < 512; i++ {
			c.f() // warm: the first use of each constant interns it
		}
		if n := testing.AllocsPerRun(1000, c.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", c.name, n)
		}
	}
}

// Digests are the same in every process, so a program can choose
// constants whose digests share their low bits. The builder's seeded
// probe start must still spread them: no node may sit far from its
// home slot.
func TestInternProbeSpread(t *testing.T) {
	b := NewBuilder()
	const want = 2048
	var consts []*Expr
	for v := uint64(0); len(consts) < want; v++ {
		if h0, _ := nodeDigest(KConst, 32, v, "", nil, nil, nil); h0&0x3ff == 0 {
			consts = append(consts, b.Const(32, v))
		}
	}
	mask := uint64(len(b.table) - 1)
	worst := uint64(0)
	for i, e := range b.table {
		if e != nil {
			worst = max(worst, (uint64(i)-b.home(e.h0))&mask)
		}
	}
	if worst > 128 {
		t.Fatalf("%d constants with equal low digest bits: a node sits %d slots past its home in a table of %d", want, worst, len(b.table))
	}
	for _, c := range consts {
		if b.Const(32, c.val) != c {
			t.Fatalf("constant %#x not found again", c.val)
		}
	}
}
