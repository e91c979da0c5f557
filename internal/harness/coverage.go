// Coverage experiment: the semantic-coverage matrix every ADL reaches
// under the standard difftest smoke budget (docs/coverage.md). What
// arming the collector costs is measured by the instrument-overhead
// experiment (overhead.go).
package harness

import (
	"fmt"
	"io"

	"repro/internal/cover"
	"repro/internal/difftest"
)

// CoverageMatrix is the per-ISA, per-layer coverage every embedded ADL
// reaches under the standard coverage-guided smoke budget.
type CoverageMatrix struct {
	Seed        int64
	Rounds      int
	Divergences int
	Report      *cover.Report
	Collector   *cover.Collector
}

// coverSmokeRounds is the standard smoke budget: enough coverage-guided
// rounds for every embedded ADL to saturate instruction coverage on the
// decode, translate and execution layers (verified by TestCoverSmoke),
// small enough to run inside `make check`.
const coverSmokeRounds = 40

// RunCoverageMatrix runs the differential oracle over every embedded
// architecture with the coverage collector attached and coverage-guided
// generation on, and returns the resulting matrix. The run is a pure
// function of the seed, so the table it prints is reproducible.
func RunCoverageMatrix() CoverageMatrix {
	coll := cover.New()
	res, err := difftest.Run(difftest.Options{
		Seed:        1,
		Rounds:      coverSmokeRounds,
		Workers:     []int{1},
		Cover:       coll,
		CoverGuided: true,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: coverage matrix: %v", err))
	}
	return CoverageMatrix{
		Seed:        1,
		Rounds:      res.Rounds,
		Divergences: len(res.Divergences),
		Report:      coll.Report(),
		Collector:   coll,
	}
}

// Print writes the matrix in the repo's table format: one block per
// ISA, one row per layer, with every remaining gap named.
func (m CoverageMatrix) Print(w io.Writer) {
	fmt.Fprintf(w, "Semantic coverage after the smoke budget (%d coverage-guided rounds, seed %d, %d divergences)\n",
		m.Rounds, m.Seed, m.Divergences)
	m.Collector.WriteText(w)
}
