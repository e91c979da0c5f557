// Checkpoint-overhead experiment (docs/service.md): the crash-safety
// bar in EXPERIMENTS.md says durable exploration checkpoints must cost
// within ±3% of a checkpoint-free run. Checkpoints are serial-only (the
// deterministic DFS frontier is what gets snapshotted), so the
// experiment fixes Workers=1 and instead sweeps the checkpoint pace:
// the 500ms service default plus aggressive 100ms and 25ms paces,
// each snapshot marshaled and written temp+rename exactly as
// internal/service does. A snapshot carries the whole frontier and the
// report accumulated so far, so per-write cost grows with progress —
// the engine's duty-cycle governor (core.Options.CheckpointEvery) is
// what keeps the total bounded, and the aggressive rows exist to show
// it holding the line where a fixed pace would not.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
)

// CheckpointOverheadRow is one workload x checkpoint-interval cell.
type CheckpointOverheadRow struct {
	Workload string
	Interval time.Duration
	Paths    int
	Writes   int // checkpoint files written across all on-reps
	CPUOff   time.Duration
	CPUOn    time.Duration
	Overhead float64 // (on-off)/off, medians
	Floor    float64 // A/A: off vs off, the noise floor of Overhead (abMedians)
}

// CheckpointOverhead is the checkpoints-on vs checkpoints-off
// experiment for the durable crash-safety layer.
type CheckpointOverhead struct {
	Rows []CheckpointOverheadRow
}

// RunCheckpointOverhead interleaves checkpoint-free and checkpointing
// serial explorations of the same fork-heavy workloads through
// abMedians and reports median CPU times.
func RunCheckpointOverhead() CheckpointOverhead {
	workloads := []struct{ name, arch, src string }{
		{"ladder13/tiny32", "tiny32", BranchLadder("tiny32", 13)},
		{"ladder13/rv32i", "rv32i", BranchLadder("rv32i", 13)},
	}
	intervals := []time.Duration{500 * time.Millisecond, 100 * time.Millisecond, 25 * time.Millisecond}
	scratch, err := os.MkdirTemp("", "ckpt-overhead-")
	if err != nil {
		panic(fmt.Sprintf("harness: checkpoint overhead: %v", err))
	}
	defer os.RemoveAll(scratch)

	var t CheckpointOverhead
	for _, wl := range workloads {
		for _, iv := range intervals {
			a, p := mustBuild(wl.arch, wl.src)
			ckpt := filepath.Join(scratch, "job.ckpt")
			row := CheckpointOverheadRow{Workload: wl.name, Interval: iv}
			row.CPUOff, row.CPUOn, row.Overhead, row.Floor = abMedians(15, func(on bool) {
				opts := core.Options{InputBytes: 13, MaxPaths: 1 << 13, Workers: 1}
				if on {
					opts.CheckpointEvery = iv
					opts.Checkpoint = func(snap *core.Snapshot) {
						data, merr := snap.Marshal()
						if merr != nil {
							panic(fmt.Sprintf("harness: checkpoint overhead: %v", merr))
						}
						tmp := ckpt + ".tmp"
						if werr := os.WriteFile(tmp, data, 0o644); werr != nil {
							panic(fmt.Sprintf("harness: checkpoint overhead: %v", werr))
						}
						if rerr := os.Rename(tmp, ckpt); rerr != nil {
							panic(fmt.Sprintf("harness: checkpoint overhead: %v", rerr))
						}
						row.Writes++
					}
				}
				r := mustRun("checkpoint overhead", a, p, opts)
				row.Paths = len(r.Paths)
			})
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Print writes the experiment in the repo's table format.
func (t CheckpointOverhead) Print(w io.Writer) {
	fmt.Fprintf(w, "Durable-checkpoint overhead: checkpointing vs off (serial fork-heavy exploration)\n")
	fmt.Fprintf(w, "%-16s %10s %6s %8s %12s %12s %9s %9s\n",
		"workload", "interval", "paths", "writes", "cpu (off)", "cpu (on)", "overhead", "a/a")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%-16s %10v %6d %8d %12v %12v %+8.1f%% %+8.1f%%\n",
			r.Workload, r.Interval, r.Paths, r.Writes,
			r.CPUOff.Round(time.Millisecond), r.CPUOn.Round(time.Millisecond),
			100*r.Overhead, 100*r.Floor)
	}
}
