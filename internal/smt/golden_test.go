package smt

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/smt/sat"
)

// hashGuard builds the query shape of perfbench's bughunt workload: a
// 32-bit rolling hash h = h*mul + c over five input bytes, whose low 16
// bits are compared with target.
func hashGuard(b *expr.Builder, target uint64) *expr.Expr {
	h := b.Const(32, 0x2f5a1c37)
	for i := 0; i < 5; i++ {
		c := b.ZExt(b.Var(8, fmt.Sprintf("in%d", i)), 32)
		h = b.Add(b.Mul(h, b.Const(32, 23)), c)
	}
	return b.Eq(b.And(h, b.Const(32, 0xffff)), b.Const(32, target))
}

// hashGuardRun is the fingerprint of the hash-guard sequence: CNF size,
// the SAT solver's Stats and a hash of each answer and model.
type hashGuardRun struct {
	Clauses, AuxVars int64
	SAT              sat.Stats
	Hash             uint64
}

// TestHashGuardSearchIdentity pins the blaster's output and the SAT
// search on the bughunt guard: both sides of the fork, then a second
// target over the same blasted hash. The values were recorded from the
// blaster and pointer-per-clause SAT core that preceded the clause
// arena; a storage or buffering change must reproduce them exactly.
func TestHashGuardSearchIdentity(t *testing.T) {
	b := expr.NewBuilder()
	s := New(b)
	g := hashGuard(b, 0x6c1d)
	h := fnv.New64a()
	for _, q := range []*expr.Expr{g, b.BoolNot(g), hashGuard(b, 0x1234)} {
		r, err := s.Check(q)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%v", r)
		if r == Sat {
			if !expr.EvalBool(q, s.Model()) {
				t.Fatalf("model %v does not satisfy the query", s.Model())
			}
			var names []string
			for n := range s.Model() {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintf(h, " %s=%d", n, s.Model()[n])
			}
		}
	}
	got := hashGuardRun{s.Stats.Clauses, s.Stats.AuxVars, s.SATStats(), h.Sum64()}
	want := hashGuardRun{6584, 1449, sat.Stats{
		Decisions: 968, Propagations: 25538, Conflicts: 283, Restarts: 1,
		Learned: 280, Deleted: 0, Solves: 3, Deadlines: 0,
	}, 17065162254596005477}
	if got != want {
		t.Errorf("got  %+v\nwant %+v", got, want)
	}
}
