package core_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/harness"
)

// condDigests lists each path's path condition as its conjuncts'
// structural hashes, sorted across paths.
func condDigests(r *core.Report) []string {
	out := make([]string, len(r.Paths))
	for i, p := range r.Paths {
		var sb strings.Builder
		for _, c := range p.PathCond {
			fmt.Fprintf(&sb, "%x,", expr.Hash(c))
		}
		out[i] = sb.String()
	}
	sort.Strings(out)
	return out
}

// TestModelReuseAnswersOneSideOfEveryFork: on a k-branch ladder whose
// forks are all two-sided, the parent state's model answers exactly one
// side of every fork, serial and parallel. Paths, path conditions and
// query counts equal the pure-SAT run's (NoQueryCache), which never
// reuses a model.
func TestModelReuseAnswersOneSideOfEveryFork(t *testing.T) {
	const k = 7
	src := harness.BranchLadder("tiny32", k)
	pure := exploreWith(t, "tiny32", src, core.Options{InputBytes: k, MaxPaths: 1 << k, NoQueryCache: true})
	ps := pure.Stats.Solver
	if pure.Stats.Forks != 1<<k-1 || ps.ModelHits != 0 || ps.CacheHits != 0 {
		t.Fatalf("pure-SAT run: %d forks, %d model hits, %d cache hits; want %d, 0, 0",
			pure.Stats.Forks, ps.ModelHits, ps.CacheHits, 1<<k-1)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := exploreWith(t, "tiny32", src, core.Options{InputBytes: k, MaxPaths: 1 << k, Workers: workers})
			s := r.Stats.Solver
			if s.ModelHits != r.Stats.Forks {
				t.Errorf("model hits = %d, want one per fork (%d)", s.ModelHits, r.Stats.Forks)
			}
			if s.CacheHits+s.CacheMisses != s.Queries || s.ModelHits > s.CacheHits {
				t.Errorf("%d cache hits (%d from models) + %d misses for %d queries", s.CacheHits, s.ModelHits, s.CacheMisses, s.Queries)
			}
			if r.Stats.Forks != pure.Stats.Forks || s.Queries != ps.Queries || s.SatResults != ps.SatResults || s.UnsatCount != ps.UnsatCount {
				t.Errorf("forks/queries/sat/unsat = %d/%d/%d/%d, pure-SAT run %d/%d/%d/%d",
					r.Stats.Forks, s.Queries, s.SatResults, s.UnsatCount, pure.Stats.Forks, ps.Queries, ps.SatResults, ps.UnsatCount)
			}
			if !equalStrings(pathKeys(r), pathKeys(pure)) {
				t.Error("paths differ from the pure-SAT run")
			}
			if !equalStrings(condDigests(r), condDigests(pure)) {
				t.Error("path conditions differ from the pure-SAT run")
			}
		})
	}
}
