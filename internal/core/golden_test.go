package core_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata golden files from the current engine")

// TestSerialOrderGolden pins what a one-worker run reports, for every
// strategy: the completed paths in report order with their IDs,
// signatures, statuses, steps and depths, the findings' path IDs and
// instruction counts, and the exploration counters — also under the
// MaxPaths, MaxStates, StopOnBug and Cancel stops and with MergeStates.
// Any change to the exploration loop that reorders, renumbers or
// recounts a serial run shows up as a diff against the golden file
// (regenerate it with go test -run TestSerialOrderGolden -update).
func TestSerialOrderGolden(t *testing.T) {
	ladder := harness.BranchLadder("tiny32", 5)
	canceled := make(chan struct{})
	close(canceled)
	scenarios := []struct {
		name   string
		src    string
		checks bool
		opts   core.Options
	}{
		{name: "ladder", src: ladder, opts: core.Options{InputBytes: 5}},
		{name: "max-paths", src: ladder, opts: core.Options{InputBytes: 5, MaxPaths: 11}},
		{name: "max-states", src: ladder, opts: core.Options{InputBytes: 5, MaxStates: 2}},
		{name: "merge", src: ladder, opts: core.Options{InputBytes: 5, MergeStates: true}},
		{name: "bugs", src: resumeSrc, checks: true, opts: core.Options{InputBytes: 3}},
		{name: "stop-on-bug", src: resumeSrc, checks: true, opts: core.Options{InputBytes: 3, StopOnBug: true}},
		{name: "canceled", src: ladder, opts: core.Options{InputBytes: 5, Cancel: canceled}},
	}
	var sb strings.Builder
	for _, sc := range scenarios {
		for _, strategy := range []core.Strategy{core.DFS, core.BFS, core.Random, core.Coverage} {
			opts := sc.opts
			opts.Strategy, opts.Seed = strategy, 7
			_, r := analyze(t, "tiny32", sc.src, opts, sc.checks)
			s := r.Stats
			fmt.Fprintf(&sb, "== %s/%s\n", sc.name, strategy)
			fmt.Fprintf(&sb, "stats insns=%d paths=%d forks=%d infeasible=%d killed=%d maxlive=%d merges=%d coverage=%d workerstats=%d\n",
				s.Instructions, s.PathsDone, s.Forks, s.Infeasible, s.StatesKilled, s.MaxLiveSet, s.Merges, s.Coverage, len(s.WorkerStats))
			for _, p := range r.Paths {
				fmt.Fprintf(&sb, "path %d sig=%016x %s steps=%d depth=%d\n", p.ID, p.Sig(), p.Status, p.Steps, p.Depth)
			}
			for _, b := range r.Bugs {
				fmt.Fprintf(&sb, "bug %s pc=%#x path=%d at=%d\n", b.Check, b.PC, b.PathID, b.FoundAt)
			}
		}
	}

	golden := filepath.Join("testdata", "serial_order.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(sb.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if strings.HasPrefix(w, "== ") {
			section = w
		}
		if g != w {
			t.Fatalf("%s: line %d differs from %s:\n got  %q\n want %q", section, i+1, golden, g, w)
		}
	}
}
