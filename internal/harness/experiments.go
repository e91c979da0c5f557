package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/arch"
	"repro/internal/adl"
	"repro/internal/asm"
	"repro/internal/baseline"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/minic"
	"repro/internal/prog"
	"repro/internal/smt"
)

// mustBuild assembles src for the named architecture.
func mustBuild(archName, src string) (*adl.Arch, *prog.Program) {
	a := arch.MustLoad(archName)
	p, err := asm.New(a).Assemble(archName+".s", src)
	if err != nil {
		panic(fmt.Sprintf("harness: %s: %v", archName, err))
	}
	return a, p
}

// countRTLStmts counts semantics statements over all instructions.
func countRTLStmts(a *adl.Arch) int {
	var n int
	var walk func([]adl.Stmt)
	walk = func(ss []adl.Stmt) {
		for _, s := range ss {
			n++
			if ifs, ok := s.(*adl.IfStmt); ok {
				walk(ifs.Then)
				walk(ifs.Else)
			}
		}
	}
	for _, i := range a.Insns {
		walk(i.Sem)
	}
	return n
}

func countLines(src string) int {
	n := 0
	for _, ln := range strings.Split(src, "\n") {
		t := strings.TrimSpace(ln)
		if t != "" && !strings.HasPrefix(t, "//") {
			n++
		}
	}
	return n
}

// baselineLoC counts the non-blank, non-comment lines of the hand-written
// baseline engine by reading its source relative to this file. Returns 0
// when the source tree is not available (e.g. a stripped binary).
func baselineLoC() int {
	_, here, _, ok := runtime.Caller(0)
	if !ok {
		return 0
	}
	path := filepath.Join(filepath.Dir(here), "..", "baseline", "baseline.go")
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	return countLines(string(b))
}

// ---- Table 1: retargeting effort ----

// Table1Row describes one architecture's description-vs-generated sizes.
type Table1Row struct {
	Arch        string
	ADLLines    int // non-blank, non-comment ADL lines
	Insns       int
	Formats     int
	Regs        int
	DecodeCases int // decoder match entries generated
	RTLStmts    int // semantics statements generated
}

// Table1 is the retargeting-effort experiment.
type Table1 struct {
	Rows        []Table1Row
	BaselineLoC int // hand-written tiny32 engine, for comparison
}

// RunTable1 measures description size against generated-component size.
func RunTable1() Table1 {
	var t Table1
	for _, name := range AllArches {
		src, err := arch.Source(name)
		if err != nil {
			panic(err)
		}
		a := arch.MustLoad(name)
		t.Rows = append(t.Rows, Table1Row{
			Arch:        name,
			ADLLines:    countLines(src),
			Insns:       len(a.Insns),
			Formats:     len(a.Formats),
			Regs:        len(a.Regs),
			DecodeCases: len(a.Insns),
			RTLStmts:    countRTLStmts(a),
		})
	}
	t.BaselineLoC = baselineLoC()
	return t
}

// Print writes the table in the paper's row format.
func (t Table1) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 1: retargeting effort (one ADL file per ISA vs. hand-written engine)\n")
	fmt.Fprintf(w, "%-8s %9s %6s %8s %6s %12s %9s\n", "ISA", "ADL lines", "insns", "formats", "regs", "decode cases", "RTL stmts")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-8s %9d %6d %8d %6d %12d %9d\n",
			r.Arch, r.ADLLines, r.Insns, r.Formats, r.Regs, r.DecodeCases, r.RTLStmts)
	}
	fmt.Fprintf(w, "hand-written tiny32 symbolic engine (baseline): %d LoC of Go\n", t.BaselineLoC)
}

// ---- Table 2: bug detection across ISAs ----

// Table2Row is the detection result for one test case.
type Table2Row struct {
	Arch     string
	Case     string
	Buggy    bool   // planted-bug variant vs fixed variant
	Expected string // checker expected to fire ("" = none)
	Fired    []string
	Detected bool // expected checker fired (or fault path for assert cases)
	FalsePos bool // a checker fired on a fixed variant
}

// Table2 is the vulnerability-detection experiment.
type Table2 struct {
	Rows []Table2Row
}

// RunTable2 runs every planted-vulnerability case under all checkers.
func RunTable2() Table2 {
	var t Table2
	for _, name := range Arches {
		for _, v := range VulnSuite(name) {
			a, p := mustBuild(name, v.Src)
			inputs := v.Inputs
			if inputs == 0 {
				inputs = 2
			}
			e := core.NewEngine(a, p, core.Options{InputBytes: inputs, MaxSteps: 400, MaxPaths: 64})
			for _, c := range checker.All() {
				e.AddChecker(c)
			}
			r, err := e.Run()
			if err != nil {
				panic(err)
			}
			row := Table2Row{Arch: name, Case: v.Name, Buggy: v.Buggy, Expected: v.Kind}
			fired := map[string]bool{}
			for _, b := range r.Bugs {
				if !fired[b.Check] {
					fired[b.Check] = true
					row.Fired = append(row.Fired, b.Check)
				}
			}
			faultPath := false
			for _, pth := range r.Paths {
				if pth.Status == core.StatusFault {
					faultPath = true
				}
			}
			if v.Buggy {
				if v.Kind != "" {
					row.Detected = fired[v.Kind]
				} else {
					row.Detected = faultPath // assert-reachability cases
				}
			} else {
				row.Detected = true // nothing to detect
				row.FalsePos = len(row.Fired) > 0
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Summary returns (buggy cases, detected, fixed cases, false positives).
func (t Table2) Summary() (buggy, detected, fixed, falsePos int) {
	for _, r := range t.Rows {
		if r.Buggy {
			buggy++
			if r.Detected {
				detected++
			}
		} else {
			fixed++
			if r.FalsePos {
				falsePos++
			}
		}
	}
	return
}

// Print writes the table.
func (t Table2) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 2: planted-vulnerability detection per ISA\n")
	fmt.Fprintf(w, "%-8s %-16s %-14s %-8s %s\n", "ISA", "case", "expected", "found", "checkers fired")
	for _, r := range t.Rows {
		status := "yes"
		if !r.Detected {
			status = "NO"
		}
		if r.FalsePos {
			status = "FALSE-POS"
		}
		exp := r.Expected
		if exp == "" {
			if strings.Contains(r.Case, "fixed") {
				exp = "-"
			} else {
				exp = "fault-path"
			}
		}
		fmt.Fprintf(w, "%-8s %-16s %-14s %-8s %s\n", r.Arch, r.Case, exp, status, strings.Join(r.Fired, ","))
	}
	b, d, f, fp := t.Summary()
	fmt.Fprintf(w, "summary: %d/%d planted bugs detected, %d/%d fixed variants clean\n", d, b, f-fp, f)
}

// ---- Table 3: generated engine vs hand-written baseline throughput ----

// Table3Row compares one workload.
type Table3Row struct {
	Workload      string
	GenInsns      int64
	GenTime       time.Duration
	GenRate       float64 // instructions per second
	BaseInsns     int64
	BaseTime      time.Duration
	BaseRate      float64
	SlowdownRatio float64 // baseline rate / generated rate
}

// Table3 is the throughput comparison.
type Table3 struct {
	Rows []Table3Row
}

// RunTable3 executes identical tiny32 workloads on both engines.
func RunTable3() Table3 {
	var t Table3
	for _, wl := range []struct {
		name string
		n    int
	}{
		{"sort", 24},
		{"checksum", 400},
	} {
		src := Throughput(wl.name, wl.n)
		a, p := mustBuild("tiny32", src)

		e := core.NewEngine(a, p, core.Options{MaxSteps: 1 << 20})
		gr, err := e.Run()
		if err != nil {
			panic(err)
		}

		be, err := baseline.New(p, baseline.Options{MaxSteps: 1 << 20})
		if err != nil {
			panic(err)
		}
		br, err := be.Run()
		if err != nil {
			panic(err)
		}

		row := Table3Row{
			Workload:  fmt.Sprintf("%s(n=%d)", wl.name, wl.n),
			GenInsns:  gr.Stats.Instructions,
			GenTime:   gr.Stats.WallTime,
			BaseInsns: br.Stats.Instructions,
			BaseTime:  br.Stats.WallTime,
		}
		if gr.Stats.WallTime > 0 {
			row.GenRate = float64(row.GenInsns) / gr.Stats.WallTime.Seconds()
		}
		if br.Stats.WallTime > 0 {
			row.BaseRate = float64(row.BaseInsns) / br.Stats.WallTime.Seconds()
		}
		if row.GenRate > 0 {
			row.SlowdownRatio = row.BaseRate / row.GenRate
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Print writes the table.
func (t Table3) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 3: symbolic interpretation throughput, generated vs hand-written (tiny32)\n")
	fmt.Fprintf(w, "%-16s %12s %12s %12s %12s %9s\n", "workload", "gen insns/s", "gen time", "base insns/s", "base time", "base/gen")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %12.0f %12v %12.0f %12v %9.2f\n",
			r.Workload, r.GenRate, r.GenTime.Round(time.Microsecond),
			r.BaseRate, r.BaseTime.Round(time.Microsecond), r.SlowdownRatio)
	}
}

// ---- Figure 1: path growth vs branch count ----

// Fig1Point is one measurement of the path-explosion curve.
type Fig1Point struct {
	Arch     string
	Branches int
	Paths    int
	Time     time.Duration
	Queries  int64
}

// RunFig1 measures explored paths and time for branch ladders of
// increasing depth on every ISA.
func RunFig1(maxK int) []Fig1Point {
	var pts []Fig1Point
	for _, name := range Arches {
		for k := 2; k <= maxK; k++ {
			a, p := mustBuild(name, BranchLadder(name, k))
			e := core.NewEngine(a, p, core.Options{InputBytes: k, MaxSteps: 10000, MaxPaths: 1 << uint(k+1)})
			r, err := e.Run()
			if err != nil {
				panic(err)
			}
			pts = append(pts, Fig1Point{
				Arch: name, Branches: k, Paths: len(r.Paths),
				Time: r.Stats.WallTime, Queries: r.Stats.Solver.Queries,
			})
		}
	}
	return pts
}

// PrintFig1 writes the series.
func PrintFig1(w io.Writer, pts []Fig1Point) {
	fmt.Fprintf(w, "Figure 1: explored paths vs. symbolic branches (expect 2^k, identical across ISAs)\n")
	fmt.Fprintf(w, "%-8s %9s %8s %12s %9s\n", "ISA", "branches", "paths", "time", "queries")
	for _, p := range pts {
		fmt.Fprintf(w, "%-8s %9d %8d %12v %9d\n", p.Arch, p.Branches, p.Paths, p.Time.Round(time.Microsecond), p.Queries)
	}
}

// ---- Figure 2: solver share of execution time vs path depth ----

// Fig2Point records where the time went for one ladder depth.
type Fig2Point struct {
	Branches    int
	Total       time.Duration
	SolverTime  time.Duration
	SolverShare float64
	Queries     int64
	AvgQuery    time.Duration
}

// RunFig2 measures the solver's share of wall time on tiny32 ladders.
func RunFig2(maxK int) []Fig2Point {
	var pts []Fig2Point
	for k := 2; k <= maxK; k++ {
		a, p := mustBuild("tiny32", BranchLadder("tiny32", k))
		e := core.NewEngine(a, p, core.Options{InputBytes: k, MaxSteps: 10000, MaxPaths: 1 << uint(k+1)})
		r, err := e.Run()
		if err != nil {
			panic(err)
		}
		pt := Fig2Point{
			Branches:   k,
			Total:      r.Stats.WallTime,
			SolverTime: r.Stats.Solver.SolveTime,
			Queries:    r.Stats.Solver.Queries,
		}
		if r.Stats.WallTime > 0 {
			pt.SolverShare = float64(pt.SolverTime) / float64(pt.Total)
		}
		if pt.Queries > 0 {
			pt.AvgQuery = time.Duration(int64(pt.SolverTime) / pt.Queries)
		}
		pts = append(pts, pt)
	}
	return pts
}

// PrintFig2 writes the series.
func PrintFig2(w io.Writer, pts []Fig2Point) {
	fmt.Fprintf(w, "Figure 2: SMT solver share of analysis time vs. path depth (tiny32)\n")
	fmt.Fprintf(w, "%9s %12s %12s %8s %9s %10s\n", "branches", "total", "solver", "share", "queries", "avg query")
	for _, p := range pts {
		fmt.Fprintf(w, "%9d %12v %12v %7.1f%% %9d %10v\n",
			p.Branches, p.Total.Round(time.Microsecond), p.SolverTime.Round(time.Microsecond),
			p.SolverShare*100, p.Queries, p.AvgQuery)
	}
}

// ---- Figure 3: search strategies, time to first bug ----

// Fig3Point is one strategy's needle hunt.
type Fig3Point struct {
	Strategy  core.Strategy
	Depth     int
	Found     bool
	PathsRun  int
	Insns     int64
	Time      time.Duration
	InsnsToGo int64 // instructions executed before the first bug
}

// RunFig3 hunts a guarded bug with each strategy at the given depths.
func RunFig3(depths []int) []Fig3Point {
	var pts []Fig3Point
	for _, depth := range depths {
		key := make([]byte, depth)
		for i := range key {
			key[i] = byte(0x10 + 7*i)
		}
		src := Needle("tiny32", key)
		for _, s := range []core.Strategy{core.DFS, core.BFS, core.Random, core.Coverage} {
			a, p := mustBuild("tiny32", src)
			e := core.NewEngine(a, p, core.Options{
				InputBytes: depth, MaxSteps: 10000, Strategy: s, Seed: 42,
				MaxPaths: 100000, StopOnBug: true,
			})
			e.AddChecker(checker.DivByZero{})
			r, err := e.Run()
			if err != nil {
				panic(err)
			}
			pt := Fig3Point{Strategy: s, Depth: depth, PathsRun: len(r.Paths),
				Insns: r.Stats.Instructions, Time: r.Stats.WallTime}
			if len(r.Bugs) > 0 {
				pt.Found = true
				pt.InsnsToGo = r.Bugs[0].FoundAt
			} else {
				pt.InsnsToGo = r.Stats.Instructions
			}
			pts = append(pts, pt)
		}
	}
	return pts
}

// PrintFig3 writes the series.
func PrintFig3(w io.Writer, pts []Fig3Point) {
	fmt.Fprintf(w, "Figure 3: work to reach a guarded bug in a decoy haystack, by strategy (tiny32)\n")
	fmt.Fprintf(w, "%-10s %6s %6s %8s %14s %12s\n", "strategy", "depth", "found", "paths", "insns-to-bug", "time")
	for _, p := range pts {
		fmt.Fprintf(w, "%-10v %6d %6v %8d %14d %12v\n",
			p.Strategy, p.Depth, p.Found, p.PathsRun, p.InsnsToGo, p.Time.Round(time.Microsecond))
	}
}

// ---- Figure 4: solver scaling with operand width ----

// Fig4Point is one (operation, width) sample.
type Fig4Point struct {
	Op      string
	Width   uint
	Vars    int
	Clauses int
	Time    time.Duration
	Result  smt.Result
}

// RunFig4 measures CNF size and solve time for x ⊕ y == c queries at
// increasing widths, per operation.
func RunFig4(widths []uint) []Fig4Point {
	var pts []Fig4Point
	for _, op := range []string{"add", "mul", "udiv"} {
		for _, w := range widths {
			b := expr.NewBuilder()
			s := smt.New(b)
			x := b.Var(w, "x")
			y := b.Var(w, "y")
			var e *expr.Expr
			switch op {
			case "add":
				e = b.Add(x, y)
			case "mul":
				e = b.Mul(x, y)
			case "udiv":
				e = b.UDiv(x, y)
			}
			q := b.BoolAnd(
				b.Eq(e, b.Const(w, 0x2a)),
				b.UGt(y, b.Const(w, 1)),
			)
			t0 := time.Now()
			res, err := s.Check(q)
			if err != nil {
				panic(err)
			}
			pts = append(pts, Fig4Point{
				Op: op, Width: w,
				Vars:    s.NumSATVars(),
				Clauses: s.NumClauses(),
				Time:    time.Since(t0),
				Result:  res,
			})
		}
	}
	return pts
}

// PrintFig4 writes the series.
func PrintFig4(w io.Writer, pts []Fig4Point) {
	fmt.Fprintf(w, "Figure 4: bit-blasting size and solve time vs. operand width\n")
	fmt.Fprintf(w, "%-6s %6s %8s %9s %12s %7s\n", "op", "width", "vars", "clauses", "time", "result")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6s %6d %8d %9d %12v %7v\n",
			p.Op, p.Width, p.Vars, p.Clauses, p.Time.Round(time.Microsecond), p.Result)
	}
}

// RunAll executes every experiment with moderate parameters and writes
// the report to w (used by cmd/experiments).
func RunAll(w io.Writer) {
	RunTable1().Print(w)
	fmt.Fprintln(w)
	RunTable2().Print(w)
	fmt.Fprintln(w)
	RunTable3().Print(w)
	fmt.Fprintln(w)
	RunTable4(8).Print(w)
	fmt.Fprintln(w)
	RunTable5().Print(w)
	fmt.Fprintln(w)
	PrintFig1(w, RunFig1(8))
	fmt.Fprintln(w)
	PrintFig2(w, RunFig2(9))
	fmt.Fprintln(w)
	PrintFig3(w, RunFig3([]int{3, 5, 7}))
	fmt.Fprintln(w)
	PrintFig4(w, RunFig4([]uint{8, 16, 24, 32, 48, 64}))
}

// ---- Table 4: full exploration vs. concolic generational search ----

// Table4Row compares the two exploration modes on one ladder depth.
type Table4Row struct {
	Branches     int
	FullPaths    int
	FullQueries  int64
	FullTime     time.Duration
	ConcRuns     int
	ConcQueries  int64
	ConcTime     time.Duration
	ConcCoverage int
}

// Table4 compares full symbolic exploration against concolic testing.
type Table4 struct {
	Rows []Table4Row
}

// RunTable4 measures both modes on tiny32 branch ladders. Both reach the
// same 2^k behaviours; the comparison is about how the solver work is
// spent (eager forking vs. replay plus suffix flipping).
func RunTable4(maxK int) Table4 {
	var t Table4
	for k := 2; k <= maxK; k++ {
		src := BranchLadder("tiny32", k)

		a, p := mustBuild("tiny32", src)
		e := core.NewEngine(a, p, core.Options{InputBytes: k, MaxPaths: 1 << uint(k+1)})
		fr, err := e.Run()
		if err != nil {
			panic(err)
		}

		a2, p2 := mustBuild("tiny32", src)
		e2 := core.NewEngine(a2, p2, core.Options{InputBytes: k, MaxPaths: 1 << uint(k+1)})
		t0 := time.Now()
		cr, err := e2.Concolic(nil, 1<<uint(k+1))
		if err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, Table4Row{
			Branches:     k,
			FullPaths:    len(fr.Paths),
			FullQueries:  fr.Stats.Solver.Queries,
			FullTime:     fr.Stats.WallTime,
			ConcRuns:     len(cr.Paths),
			ConcQueries:  e2.Solver.Stats.Queries,
			ConcTime:     time.Since(t0),
			ConcCoverage: cr.Stats.Coverage,
		})
	}
	return t
}

// Print writes the table.
func (t Table4) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 4: full symbolic exploration vs. concolic generational search (tiny32 ladders)\n")
	fmt.Fprintf(w, "%9s %10s %9s %12s %9s %9s %12s %9s\n",
		"branches", "full paths", "queries", "time", "conc runs", "queries", "time", "coverage")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%9d %10d %9d %12v %9d %9d %12v %9d\n",
			r.Branches, r.FullPaths, r.FullQueries, r.FullTime.Round(time.Microsecond),
			r.ConcRuns, r.ConcQueries, r.ConcTime.Round(time.Microsecond), r.ConcCoverage)
	}
}

// ---- Table 5: symbolic execution of compiled binaries across ISAs ----

// CWorkloads are the MiniC evaluation programs, compiled per ISA by the
// built-in compiler. This is the paper's setting proper: the analyzed
// binaries come out of a compiler, not out of hand-written assembly.
var CWorkloads = map[string]string{
	"classify": `
int classify(int a, int b) {
	if (a < 64) { if (b < 64) return 0; return 1; }
	if (b < 64) return 2;
	return 3;
}
void main() {
	output(classify(input(), input()));
	exit();
}
`,
	"lookup": `
int table[8] = { 2, 3, 5, 7, 11, 13, 17, 19 };
void main() {
	int i;
	i = input() & 7;
	output(table[i]);
	exit();
}
`,
	"loopsum": `
void main() {
	int n, i, s;
	n = input() & 7;
	s = 0;
	i = 0;
	while (i < n) { s = s + i; i = i + 1; }
	output(s);
	exit();
}
`,
}

// Table5Row is one (workload, ISA) measurement.
type Table5Row struct {
	Workload  string
	Arch      string
	CodeBytes int
	Paths     int
	Insns     int64
	Queries   int64
	Time      time.Duration
}

// Table5 is the compiled-binary cross-ISA experiment.
type Table5 struct {
	Rows []Table5Row
}

// RunTable5 compiles each MiniC workload to every compiler target and
// explores the resulting binaries.
func RunTable5() Table5 {
	var t Table5
	names := make([]string, 0, len(CWorkloads))
	for n := range CWorkloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, targetName := range minic.Targets() {
			asmText, err := minic.CompileSource(wl+".c", CWorkloads[wl], targetName)
			if err != nil {
				panic(err)
			}
			a, p := mustBuild(targetName, asmText)
			e := core.NewEngine(a, p, core.Options{InputBytes: 2, MaxSteps: 4000})
			r, err := e.Run()
			if err != nil {
				panic(err)
			}
			t.Rows = append(t.Rows, Table5Row{
				Workload: wl, Arch: targetName,
				CodeBytes: p.Size(), Paths: len(r.Paths),
				Insns: r.Stats.Instructions, Queries: r.Stats.Solver.Queries,
				Time: r.Stats.WallTime,
			})
		}
	}
	return t
}

// Print writes the table.
func (t Table5) Print(w io.Writer) {
	fmt.Fprintf(w, "Table 5: symbolic execution of MiniC-compiled binaries (same C source per row)\n")
	fmt.Fprintf(w, "%-10s %-8s %10s %7s %8s %9s %12s\n", "workload", "ISA", "code bytes", "paths", "insns", "queries", "time")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-10s %-8s %10d %7d %8d %9d %12v\n",
			r.Workload, r.Arch, r.CodeBytes, r.Paths, r.Insns, r.Queries, r.Time.Round(time.Microsecond))
	}
}
