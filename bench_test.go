package repro

// One benchmark per table and figure of the reconstructed evaluation
// (DESIGN.md §3). Run all of them with:
//
//	go test -bench=. -benchmem
//
// Each benchmark both regenerates the experiment's data (printed once,
// under -v via b.Log) and reports the headline quantity as a custom
// metric, so `go test -bench` output doubles as the paper's numbers.

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/minic"
	"repro/internal/prog"
)

func mustAssemble(b *testing.B, archName, src string) *prog.Program {
	b.Helper()
	p, err := asm.New(arch.MustLoad(archName)).Assemble("bench.s", src)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTable1Retargeting measures the full retarget cost: parse and
// check an ADL description and construct the engine components from it.
// The custom metrics report description size vs. the hand-written
// baseline.
func BenchmarkTable1Retargeting(b *testing.B) {
	tbl := harness.RunTable1()
	var buf bytes.Buffer
	tbl.Print(&buf)
	b.Log("\n" + buf.String())
	for _, row := range tbl.Rows {
		row := row
		b.Run(row.Arch, func(b *testing.B) {
			src, err := arch.Source(row.Arch)
			if err != nil {
				b.Fatal(err)
			}
			img := &prog.Program{Arch: row.Arch}
			for b.Loop() {
				a, err := arch.Load(row.Arch)
				if err != nil {
					b.Fatal(err)
				}
				core.NewEngine(a, img, core.Options{})
			}
			b.ReportMetric(float64(len(src)), "ADL-bytes")
			b.ReportMetric(float64(row.ADLLines), "ADL-lines")
			b.ReportMetric(float64(tbl.BaselineLoC), "handwritten-LoC")
		})
	}
}

// BenchmarkTable2Detection runs the planted-vulnerability suite and
// reports detection counts as metrics.
func BenchmarkTable2Detection(b *testing.B) {
	var tbl harness.Table2
	for b.Loop() {
		tbl = harness.RunTable2()
	}
	var buf bytes.Buffer
	tbl.Print(&buf)
	b.Log("\n" + buf.String())
	buggy, detected, fixed, falsePos := tbl.Summary()
	b.ReportMetric(float64(buggy), "planted")
	b.ReportMetric(float64(detected), "detected")
	b.ReportMetric(float64(fixed), "fixed-variants")
	b.ReportMetric(float64(falsePos), "false-positives")
}

// BenchmarkTable3Throughput compares symbolic interpretation rates of the
// generated engine against the hand-written baseline on identical tiny32
// programs.
func BenchmarkTable3Throughput(b *testing.B) {
	for _, wl := range []struct {
		name string
		n    int
	}{{"sort", 24}, {"checksum", 400}} {
		src := harness.Throughput(wl.name, wl.n)
		p := mustAssemble(b, "tiny32", src)
		a := arch.MustLoad("tiny32")

		b.Run("generated/"+wl.name, func(b *testing.B) {
			var insns int64
			for b.Loop() {
				e := core.NewEngine(a, p, core.Options{MaxSteps: 1 << 20})
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				insns = r.Stats.Instructions
			}
			b.ReportMetric(float64(insns)*float64(b.N)/b.Elapsed().Seconds(), "insns/s")
		})
		b.Run("baseline/"+wl.name, func(b *testing.B) {
			var insns int64
			for b.Loop() {
				e, err := baseline.New(p, baseline.Options{MaxSteps: 1 << 20})
				if err != nil {
					b.Fatal(err)
				}
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				insns = r.Stats.Instructions
			}
			b.ReportMetric(float64(insns)*float64(b.N)/b.Elapsed().Seconds(), "insns/s")
		})
	}
}

// BenchmarkFig1PathGrowth measures the path-explosion curve per ISA.
func BenchmarkFig1PathGrowth(b *testing.B) {
	pts := harness.RunFig1(7)
	var buf bytes.Buffer
	harness.PrintFig1(&buf, pts)
	b.Log("\n" + buf.String())
	for _, archName := range harness.Arches {
		for _, k := range []int{4, 6, 8} {
			src := harness.BranchLadder(archName, k)
			p := mustAssemble(b, archName, src)
			a := arch.MustLoad(archName)
			name := archName + "/k=" + string(rune('0'+k))
			b.Run(name, func(b *testing.B) {
				var paths int
				for b.Loop() {
					e := core.NewEngine(a, p, core.Options{InputBytes: k, MaxPaths: 1 << uint(k+1)})
					r, err := e.Run()
					if err != nil {
						b.Fatal(err)
					}
					paths = len(r.Paths)
				}
				b.ReportMetric(float64(paths), "paths")
			})
		}
	}
}

// BenchmarkFig2SolverShare measures the SMT share of analysis time.
func BenchmarkFig2SolverShare(b *testing.B) {
	pts := harness.RunFig2(8)
	var buf bytes.Buffer
	harness.PrintFig2(&buf, pts)
	b.Log("\n" + buf.String())
	for _, k := range []int{4, 8} {
		src := harness.BranchLadder("tiny32", k)
		p := mustAssemble(b, "tiny32", src)
		a := arch.MustLoad("tiny32")
		b.Run("k="+string(rune('0'+k)), func(b *testing.B) {
			var share float64
			var queries int64
			for b.Loop() {
				e := core.NewEngine(a, p, core.Options{InputBytes: k, MaxPaths: 1 << uint(k+1)})
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				if r.Stats.WallTime > 0 {
					share = float64(r.Stats.Solver.SolveTime) / float64(r.Stats.WallTime)
				}
				queries = r.Stats.Solver.Queries
			}
			b.ReportMetric(share*100, "solver-%")
			b.ReportMetric(float64(queries), "queries")
		})
	}
}

// BenchmarkFig3Strategies measures time-to-first-bug per search strategy.
func BenchmarkFig3Strategies(b *testing.B) {
	pts := harness.RunFig3([]int{3, 5})
	var buf bytes.Buffer
	harness.PrintFig3(&buf, pts)
	b.Log("\n" + buf.String())
	key := []byte{0x10, 0x17, 0x1e, 0x25, 0x2c}
	src := harness.Needle("tiny32", key)
	p := mustAssemble(b, "tiny32", src)
	a := arch.MustLoad("tiny32")
	for _, s := range []core.Strategy{core.DFS, core.BFS, core.Random, core.Coverage} {
		b.Run(s.String(), func(b *testing.B) {
			var insns int64
			for b.Loop() {
				e := core.NewEngine(a, p, core.Options{
					InputBytes: len(key), Strategy: s, Seed: 42, MaxPaths: 100000,
				})
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				insns = r.Stats.Instructions
			}
			b.ReportMetric(float64(insns), "insns-to-exhaust")
		})
	}
}

// BenchmarkFig4SolverScaling measures bit-blasting and solving cost vs.
// operand width per operation.
func BenchmarkFig4SolverScaling(b *testing.B) {
	pts := harness.RunFig4([]uint{8, 16, 32, 64})
	var buf bytes.Buffer
	harness.PrintFig4(&buf, pts)
	b.Log("\n" + buf.String())
	for _, op := range []string{"add", "mul", "udiv"} {
		for _, w := range []uint{8, 32} {
			name := op + "/w" + string(rune('0'+w/10)) + string(rune('0'+w%10))
			b.Run(name, func(b *testing.B) {
				var clauses int
				for b.Loop() {
					res := harness.RunFig4([]uint{w})
					for _, pt := range res {
						if pt.Op == op {
							clauses = pt.Clauses
						}
					}
				}
				b.ReportMetric(float64(clauses), "clauses")
			})
		}
	}
}

// BenchmarkAblations quantifies the design decisions DESIGN.md §5 calls
// out: expression simplification and state merging.
func BenchmarkAblations(b *testing.B) {
	src := harness.BranchLadder("tiny32", 6)
	p := mustAssemble(b, "tiny32", src)
	a := arch.MustLoad("tiny32")
	configs := []struct {
		name string
		opts core.Options
	}{
		{"full", core.Options{InputBytes: 6, MaxPaths: 1 << 8}},
		{"no-simplify", core.Options{InputBytes: 6, MaxPaths: 1 << 8, NoSimplify: true}},
		{"merge-states", core.Options{InputBytes: 6, MaxPaths: 1 << 8, MergeStates: true}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var decodes, queries int64
			var paths int
			for b.Loop() {
				e := core.NewEngine(a, p, cfg.opts)
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				decodes = r.Stats.DecodeCalls
				queries = r.Stats.Solver.Queries
				paths = len(r.Paths)
			}
			b.ReportMetric(float64(decodes), "decodes")
			b.ReportMetric(float64(queries), "queries")
			b.ReportMetric(float64(paths), "paths")
		})
	}
}

// BenchmarkTable4ConcolicVsFull compares the two exploration modes.
func BenchmarkTable4ConcolicVsFull(b *testing.B) {
	tbl := harness.RunTable4(6)
	var buf bytes.Buffer
	tbl.Print(&buf)
	b.Log("\n" + buf.String())
	src := harness.BranchLadder("tiny32", 6)
	p := mustAssemble(b, "tiny32", src)
	a := arch.MustLoad("tiny32")
	b.Run("full", func(b *testing.B) {
		for b.Loop() {
			e := core.NewEngine(a, p, core.Options{InputBytes: 6, MaxPaths: 1 << 7})
			if _, err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("concolic", func(b *testing.B) {
		for b.Loop() {
			e := core.NewEngine(a, p, core.Options{InputBytes: 6, MaxPaths: 1 << 7})
			if _, err := e.Concolic(nil, 1<<7); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkTable5CompiledBinaries explores MiniC-compiled binaries per
// ISA (the paper's setting: analysis of compiler output).
func BenchmarkTable5CompiledBinaries(b *testing.B) {
	tbl := harness.RunTable5()
	var buf bytes.Buffer
	tbl.Print(&buf)
	b.Log("\n" + buf.String())
	for _, target := range minic.Targets() {
		src, err := minic.CompileSource("classify.c", harness.CWorkloads["classify"], target)
		if err != nil {
			b.Fatal(err)
		}
		p := mustAssemble(b, target, src)
		a := arch.MustLoad(target)
		b.Run(target, func(b *testing.B) {
			var paths int
			for b.Loop() {
				e := core.NewEngine(a, p, core.Options{InputBytes: 2, MaxSteps: 4000})
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				paths = len(r.Paths)
			}
			b.ReportMetric(float64(paths), "paths")
		})
	}
}

// BenchmarkParallelExplore compares worker counts on a fork-heavy
// program (the parallel-architecture experiment, docs/engine.md). The
// paths/sec metric is the headline: on multi-core hardware workers=4
// multiplies it; on a single-core host it exposes the coordination
// overhead instead (a few percent).
func BenchmarkParallelExplore(b *testing.B) {
	src := harness.BranchLadder("tiny32", 10)
	p := mustAssemble(b, "tiny32", src)
	a := arch.MustLoad("tiny32")
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var paths int
			var hits, misses int64
			var wall time.Duration
			for b.Loop() {
				e := core.NewEngine(a, p, core.Options{
					InputBytes: 10, MaxPaths: 1 << 11, Workers: workers,
				})
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				paths = len(r.Paths)
				hits, misses = r.Stats.Solver.CacheHits, r.Stats.Solver.CacheMisses
				wall += r.Stats.WallTime
			}
			if wall > 0 {
				b.ReportMetric(float64(paths)*float64(b.N)/wall.Seconds(), "paths/s")
			}
			if hits+misses > 0 {
				b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit-%")
			}
			b.ReportMetric(float64(paths), "paths")
		})
	}
}

// BenchmarkQueryCache isolates the solver-query cache on the workload
// where queries genuinely repeat: concolic generational search, which
// re-poses prefix conditions across generations.
func BenchmarkQueryCache(b *testing.B) {
	src := harness.Needle("tiny32", []byte{1, 2, 3})
	p := mustAssemble(b, "tiny32", src)
	a := arch.MustLoad("tiny32")
	for _, cfg := range []struct {
		name    string
		noCache bool
	}{
		{"cache", false},
		{"no-cache", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var hits, misses, queries int64
			for b.Loop() {
				e := core.NewEngine(a, p, core.Options{InputBytes: 6, NoQueryCache: cfg.noCache})
				if _, err := e.Concolic(nil, 64); err != nil {
					b.Fatal(err)
				}
				hits, misses = e.Solver.Stats.CacheHits, e.Solver.Stats.CacheMisses
				queries = e.Solver.Stats.Queries
			}
			b.ReportMetric(float64(queries), "queries")
			if hits+misses > 0 {
				b.ReportMetric(100*float64(hits)/float64(hits+misses), "cache-hit-%")
			}
		})
	}
}
