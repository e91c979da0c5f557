// Run-ledger experiment (docs/observability.md): populate a ledger
// with the parallel-scaling workloads and export the per-config
// trajectory as BENCH_ledger.json. What live progress plus the ledger
// append costs is measured by the instrument-overhead experiment
// (overhead.go).
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
	for _, wl := range ladders(10) {
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
