// Run-ledger experiments (docs/observability.md): populate a ledger
// with the parallel-scaling workloads and export the per-config
// trajectory as BENCH_ledger.json, and measure what arming the live
// progress instrument plus the ledger append costs on the fork-heavy
// workloads. The acceptance bar matches the other telemetry
// experiments: <=3% overhead with everything armed.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/ledger"
)

// LedgerTrajectory is the -only ledger experiment: every (workload,
// workers) cell appended as one run record, then each config digest
// summarized as the trend the regression gate would use.
type LedgerTrajectory struct {
	Dir      string         `json:"dir"`
	Appended int            `json:"appended"`
	Total    int            `json:"total"` // records in the ledger after appending
	Series   []ledger.Trend `json:"series"`
}

// RunLedgerTrajectory explores the parallel workloads once per worker
// count, appends one ledger record per run into dir, and summarizes
// every digest series present in the ledger afterwards. Running it
// repeatedly against the same dir grows the baselines — exactly how a
// CI checkout would use it.
func RunLedgerTrajectory(dir string, workerCounts []int) (LedgerTrajectory, error) {
	led, err := ledger.Open(dir)
	if err != nil {
		return LedgerTrajectory{}, err
	}
	defer led.Close()

	t := LedgerTrajectory{Dir: led.Path()}
	for _, wl := range parallelWorkloads() {
		for _, nw := range workerCounts {
			a, p := mustBuild(wl.arch, wl.src)
			e := core.NewEngine(a, p, core.Options{
				InputBytes: 10,
				MaxPaths:   1 << 11,
				Workers:    nw,
			})
			r, err := e.Run()
			if err != nil {
				return t, fmt.Errorf("harness: ledger trajectory: %w", err)
			}
			summary := fmt.Sprintf("inputs=%d paths=%d workers=%d", 10, 1<<11, nw)
			rec := ledger.Build(ledger.BuildInput{
				Source:  "experiments",
				Label:   wl.name,
				Digest:  ledger.Digest(wl.arch, []byte(wl.src), summary),
				ISA:     wl.arch,
				Mode:    "explore",
				Workers: nw,
				Bugs:    len(r.Bugs),
				Stats:   r.Stats,
				Now:     time.Now(),
			})
			if err := led.Append(rec); err != nil {
				return t, fmt.Errorf("harness: ledger trajectory: %w", err)
			}
			t.Appended++
		}
	}

	recs := led.Records()
	t.Total = len(recs)
	byDigest := make(map[string][]ledger.Record)
	for _, r := range recs {
		byDigest[r.Digest] = append(byDigest[r.Digest], r)
	}
	digests := make([]string, 0, len(byDigest))
	for d := range byDigest {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	for _, d := range digests {
		t.Series = append(t.Series, ledger.TrendOf(d, byDigest[d], ledger.GateOptions{}))
	}
	return t, nil
}

// WriteJSON exports the trajectory (BENCH_ledger.json).
func (t LedgerTrajectory) WriteJSON(path string) error {
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Print writes the experiment in the repo's table format.
func (t LedgerTrajectory) Print(w io.Writer) {
	fmt.Fprintf(w, "Run-ledger trajectory: %d runs appended, %d total in %s\n",
		t.Appended, t.Total, t.Dir)
	fmt.Fprintf(w, "%-16s %5s %12s %12s %10s %6s\n",
		"digest", "runs", "median wall", "median solver", "coverage", "gate")
	for _, s := range t.Series {
		cov := "-"
		if s.MedianCoverage >= 0 {
			cov = fmt.Sprintf("%.0f%%", 100*s.MedianCoverage)
		} else if s.Latest != nil && s.Latest.CoverageAddrs > 0 {
			cov = fmt.Sprintf("%d addrs", s.Latest.CoverageAddrs)
		}
		gate := "green"
		if len(s.Regressions) > 0 {
			gate = fmt.Sprintf("RED (%s)", s.Regressions[0].Metric)
		}
		fmt.Fprintf(w, "%-16s %5d %12v %12v %10s %6s\n",
			s.Digest, s.Runs,
			time.Duration(s.MedianWallNS).Round(time.Millisecond),
			time.Duration(s.MedianSolverNS).Round(time.Millisecond),
			cov, gate)
	}
}

// ProgressOverheadRow is one workload measured with live progress (and
// the ledger append) off and armed.
type ProgressOverheadRow struct {
	Workload string
	Workers  int
	Paths    int
	CPUOff   time.Duration // Options.Progress == nil
	CPUOn    time.Duration // progress armed + 250ms sampler + ledger append
	Overhead float64       // median-vs-median
	Floor    float64       // A/A: off vs off, the noise floor of Overhead (abMedians)
	Samples  int           // sampler snapshots taken during the armed reps
}

// ProgressOverhead is the armed-vs-off experiment for the live-progress
// instrument.
type ProgressOverhead struct {
	Rows []ProgressOverheadRow
}

// RunProgressOverhead mirrors RunProfileOverhead for the live-progress
// counters: the armed side runs with a Progress block attached, a
// background sampler reading a snapshot every 250ms (the symexd SSE
// default), and one ledger append per run into a scratch dir — the full
// per-run cost the daemon pays. abMedians interleaves the two sides.
func RunProgressOverhead(workerCounts []int) ProgressOverhead {
	workloads := []struct{ name, arch, src string }{
		{"ladder12/tiny32", "tiny32", BranchLadder("tiny32", 12)},
		{"ladder12/rv32i", "rv32i", BranchLadder("rv32i", 12)},
	}
	scratch, err := os.MkdirTemp("", "ledger-overhead-")
	if err != nil {
		panic(fmt.Sprintf("harness: progress overhead: %v", err))
	}
	defer os.RemoveAll(scratch)
	led, err := ledger.Open(scratch)
	if err != nil {
		panic(fmt.Sprintf("harness: progress overhead: %v", err))
	}
	defer led.Close()

	var t ProgressOverhead
	for _, wl := range workloads {
		for _, nw := range workerCounts {
			a, p := mustBuild(wl.arch, wl.src)
			row := ProgressOverheadRow{Workload: wl.name, Workers: nw}
			row.CPUOff, row.CPUOn, row.Overhead, row.Floor = abMedians(15, func(on bool) {
				opts := core.Options{InputBytes: 12, MaxPaths: 1 << 13, Workers: nw}
				stop, done := make(chan struct{}), make(chan struct{})
				if on {
					prog := &core.Progress{}
					opts.Progress = prog
					go func() {
						defer close(done)
						tk := time.NewTicker(250 * time.Millisecond)
						defer tk.Stop()
						for {
							select {
							case <-tk.C:
								_ = prog.Snapshot()
								row.Samples++
							case <-stop:
								return
							}
						}
					}()
				}
				r := mustRun("progress overhead", a, p, opts)
				row.Paths = len(r.Paths)
				if !on {
					return
				}
				close(stop)
				<-done
				rec := ledger.Build(ledger.BuildInput{
					Source: "experiments", Label: wl.name,
					Digest: ledger.Digest(wl.arch, []byte(wl.src), fmt.Sprintf("workers=%d", nw)),
					ISA:    wl.arch, Mode: "explore", Workers: nw, Stats: r.Stats,
					Now: time.Now(),
				})
				if aerr := led.Append(rec); aerr != nil {
					panic(fmt.Sprintf("harness: progress overhead: %v", aerr))
				}
			})
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Print writes the experiment in the repo's table format.
func (t ProgressOverhead) Print(w io.Writer) {
	fmt.Fprintf(w, "Live-progress + ledger overhead: armed vs off (fork-heavy exploration)\n")
	fmt.Fprintf(w, "%-16s %8s %6s %8s %12s %12s %9s %9s\n",
		"workload", "workers", "paths", "samples", "cpu (off)", "cpu (on)", "overhead", "a/a")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %8d %6d %8d %12v %12v %+8.1f%% %+8.1f%%\n",
			r.Workload, r.Workers, r.Paths, r.Samples,
			r.CPUOff.Round(time.Millisecond), r.CPUOn.Round(time.Millisecond),
			100*r.Overhead, 100*r.Floor)
	}
}
