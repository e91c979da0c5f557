package harness

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestOverheadRows runs the instrument-overhead experiment on 4-branch
// ladders with one round per cell and checks the table's shape: one row
// per instrument, workload and worker count, checkpoints at 1 worker
// only, every armed run on the off side's paths, and the profiler's and
// the progress sampler's figures that say they really were armed.
func TestOverheadRows(t *testing.T) {
	const k = 4
	workers := []int{1, 2}
	tab := runOverhead(k, workers, 1)
	var out strings.Builder
	tab.Print(&out)
	t.Logf("one round, not a measurement:\n%s", out.String())

	offPaths := map[string]int{}
	for _, wl := range ladders(k) {
		a, p := mustBuild(wl.arch, wl.src)
		r, err := core.NewEngine(a, p, core.Options{InputBytes: k, MaxPaths: 1 << 13}).Run()
		if err != nil {
			t.Fatal(err)
		}
		offPaths[wl.name] = len(r.Paths)
	}

	always := []string{"metrics", "coverage", "governor", "profiler", "progress+ledger"}
	checkpoints := []string{"checkpoint 500ms", "checkpoint 100ms", "checkpoint 25ms"}
	cells := map[string][]string{}
	for _, r := range tab.Rows {
		cell := fmt.Sprintf("%s@%d", r.Workload, r.Workers)
		cells[cell] = append(cells[cell], r.Instrument)
		if r.Paths != offPaths[r.Workload] {
			t.Errorf("%s %s: %d paths, off side explores %d", cell, r.Instrument, r.Paths, offPaths[r.Workload])
		}
		if unit := map[string]string{"profiler": "pcs", "progress+ledger": "samples"}[r.Instrument]; unit != "" {
			var n int
			if _, err := fmt.Sscanf(r.Detail, "%d "+unit, &n); err != nil || n <= 0 {
				t.Errorf("%s %s detail %q, want a count of %s > 0", cell, r.Instrument, r.Detail, unit)
			}
		}
	}
	if len(cells) != len(offPaths)*len(workers) {
		t.Errorf("%d cells, want %d", len(cells), len(offPaths)*len(workers))
	}
	for wl := range offPaths {
		for _, nw := range workers {
			want := always
			if nw == 1 {
				want = append(slices.Clone(always), checkpoints...)
			}
			cell := fmt.Sprintf("%s@%d", wl, nw)
			if got := cells[cell]; !slices.Equal(got, want) {
				t.Errorf("%s rows %v, want %v", cell, got, want)
			}
		}
	}
}
