package ledger

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"
)

// Record is one completed exploration, compact enough to append on
// every run and rich enough to diff runs over time: identity (config
// digest + ISA), cost (wall/solver time, instruction count), shape
// (paths, forks, degradations), solver economics (queries, cache
// hit/miss) and the coverage + hotspot summary. Encoded as JSON inside
// the CRC-framed log entry, so the schema can grow without a format
// version bump — unknown fields just round-trip as zero.
type Record struct {
	// Time is the completion time, unix seconds.
	Time int64 `json:"time"`
	// Source names the producer: symex | symexd | experiments | difftest.
	Source string `json:"source"`
	// Label is a free-form tag: the symexd job ID, an experiment name,
	// or the program path for CLI runs.
	Label string `json:"label,omitempty"`
	// Digest identifies the run configuration (ADL + program image +
	// relevant options); records sharing a digest are comparable and
	// form one baseline series.
	Digest string `json:"digest"`
	ISA    string `json:"isa"`
	Mode   string `json:"mode,omitempty"` // explore | concolic
	// Workers is the exploration parallelism (0 = serial default).
	Workers int `json:"workers,omitempty"`

	WallNS   int64 `json:"wall_ns"`
	SolverNS int64 `json:"solver_ns"`

	Instructions  int64 `json:"instructions"`
	Paths         int64 `json:"paths"`
	Forks         int64 `json:"forks"`
	Bugs          int64 `json:"bugs,omitempty"`
	SolverQueries int64 `json:"solver_queries"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	PathFaults    int64 `json:"path_faults,omitempty"`

	// Degraded counts graceful degradations by cause name.
	Degraded map[string]int64 `json:"degraded,omitempty"`

	// Coverage maps pipeline layer -> instruction-coverage fraction
	// (0..1) from the semantic-coverage collector, when one was armed.
	Coverage map[string]float64 `json:"coverage,omitempty"`
	// CoverageAddrs is the count of distinct instruction addresses
	// executed — always available, collector or not.
	CoverageAddrs int64 `json:"coverage_addrs,omitempty"`

	// Hotspots is the top-K costliest guest PCs from the exploration
	// profiler, when one was armed.
	Hotspots []Hotspot `json:"hotspots,omitempty"`
}

// Hotspot is one profiler hotspot, trimmed to the fields worth keeping
// longitudinally.
type Hotspot struct {
	PC       uint64 `json:"pc"`
	Insn     string `json:"insn,omitempty"`
	Execs    int64  `json:"execs,omitempty"`
	SolverNS int64  `json:"solver_ns,omitempty"`
	Forks    int64  `json:"forks,omitempty"`
}

// Wall and Solver are the time fields as durations.
func (r Record) Wall() time.Duration   { return time.Duration(r.WallNS) }
func (r Record) Solver() time.Duration { return time.Duration(r.SolverNS) }

// CoverageFloor is the minimum layer coverage fraction, the gating
// figure; -1 when no layer coverage was recorded.
func (r Record) CoverageFloor() float64 {
	if len(r.Coverage) == 0 {
		return -1
	}
	floor := 2.0
	for _, f := range r.Coverage {
		if f < floor {
			floor = f
		}
	}
	return floor
}

// Digest derives the baseline-series key for a run configuration: the
// ISA, the program image bytes, and a caller-assembled option summary
// (anything that changes the workload's cost profile — mode, input
// bytes, budgets, worker count class). Truncated sha256, stable across
// processes and runs.
func Digest(isa string, image []byte, options string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%d\x00", isa, len(image))
	h.Write(image)
	h.Write([]byte{0})
	h.Write([]byte(options))
	return hex.EncodeToString(h.Sum(nil))[:16]
}
