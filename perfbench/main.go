// Command perfbench is the repository's benchmark: four seeded
// workloads that time the generated symbolic-execution stack end to end
// and layer by layer. See README.md in this directory for the metric,
// workload and layer glossary.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	perfbench --workload ladder|straightline|bughunt|symexd --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics — the end-to-end metrics with --trace 0,
// the per-layer metrics (from a separate traced run) with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	tr       *Tracer // nil unless trace
	scratch  string  // build/scratch directory inside the checkout
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	errs              []string
	setupS            float64
	e2e               map[string]metric
	layers            map[string]metric
	diag              map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, diag: map[string]float64{}}
}

// fail counts a failed operation; the first few are described on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *report) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// setE2E records the metrics every workload reports, each under its
// glossary definition: per-unit CPU percentiles, units per process
// CPU-second, peak RSS and set-up time. Wall time is left to the traced
// run, because hypervisor steal moves it from run to run.
func (r *report) setE2E(ph *phase, perCPUs float64) error {
	p50, err := percentile(ph.unitCPU, 0.5)
	if err != nil {
		return fmt.Errorf("cpu_ms_p50: %w", err)
	}
	p90, err := percentile(ph.unitCPU, 0.9)
	if err != nil {
		return fmt.Errorf("cpu_ms_p90: %w", err)
	}
	rss := ph.rssMB
	if rss == 0 {
		if rss, err = peakRSSMB(); err != nil {
			return err
		}
	}
	r.e2e["cpu_ms_p50"] = metric{p50, "ms"}
	r.e2e["cpu_ms_p90"] = metric{p90, "ms"}
	r.e2e["units_per_cpu_s"] = metric{perCPUs, "1/s"}
	r.e2e["rss_peak_mb"] = metric{rss, "MB"}
	r.e2e["setup_s"] = metric{r.setupS, "s"}
	r.diag["host.steal_share"] = ph.steal
	r.diag["host.cpu_per_wall"] = ph.cpu.Seconds() / ph.wall.Seconds()
	r.diag["samples"] = float64(len(ph.unitCPU))
	return nil
}

// traceLayers adds the traced run's diagnostics: host state and wall
// time during the untraced phases, tracing overhead, GC share and
// sampled CPU shares.
func (r *report) traceLayers(plain, traced *phase, shares map[string]float64, tr *Tracer) {
	pc, tc, pw := plain.unitCPU, traced.unitCPU, plain.unitWall
	r.layer("host.steal_share", plain.steal, "ratio")
	r.layer("host.cpu_per_wall", plain.cpu.Seconds()/plain.wall.Seconds(), "ratio")
	p50, _ := percentile(pw, 0.5)
	p90, _ := percentile(pw, 0.9)
	r.layer("wall_ms_p50", p50, "ms")
	r.layer("wall_ms_p90", p90, "ms")
	r.layer("trace.overhead", ratio(median(tc), median(pc))-1, "ratio")
	r.layer("runtime.gc_cpu_fraction", ratio(traced.gcCPU, traced.cpu.Seconds()), "ratio")
	r.layer("runtime.num_gc", traced.numGC, "count")
	r.layer("runtime.heap_peak_mb", traced.heapMax/(1<<20), "MB")
	for b, v := range shares {
		r.layer("cpu_share."+b, v, "ratio")
	}
	_, _, residual := tr.layerTimes()
	r.layer("trace.residual_ns", float64(residual), "ns")
	r.layer("trace.spans", float64(len(tr.spans)), "count")
	r.diag["host.steal_share"] = plain.steal
	r.diag["host.cpu_per_wall"] = plain.cpu.Seconds() / plain.wall.Seconds()
}

// perLayer lists every per-layer metric in BENCHMARK.json order; a
// workload that does not exercise a layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"adl.load_ms", "ms"}, {"asm.assemble_ms", "ms"}, {"asm.image_bytes", "bytes"},
	{"core.run_cpu_ms", "ms"}, {"core.self_ms", "ms"}, {"core.new_engine_ms", "ms"},
	{"core.paths", "count"}, {"core.forks", "count"}, {"core.instructions", "count"}, {"core.max_live", "count"},
	{"core.alloc_bytes_per_fork", "bytes"}, {"core.allocs_per_insn", "count"},
	{"rtl.decode_calls", "count"}, {"rtl.compiled_units", "count"}, {"rtl.superblock_share", "ratio"},
	{"smt.queries", "count"}, {"smt.sat", "count"}, {"smt.unsat", "count"}, {"smt.clauses", "count"},
	{"smt.aux_vars", "count"}, {"smt.solve_ms", "ms"}, {"smt.blast_ms", "ms"}, {"smt.us_per_query", "us"},
	{"smt.cache_hit_rate", "ratio"}, {"smt.deadlines", "count"},
	{"checker.bugs", "count"}, {"checker.insns_to_bug", "count"}, {"check.verify_ms", "ms"},
	{"service.start_ms", "ms"}, {"service.submit_ms", "ms"}, {"service.run_ms", "ms"}, {"service.wait_ms", "ms"},
	{"service.attempted", "count"}, {"service.failed", "count"}, {"service.rejected", "count"},
	{"wal.appends_per_job", "count"}, {"wal.cache_loaded", "count"}, {"wal.cache_persisted", "count"},
	{"runtime.gc_cpu_fraction", "ratio"}, {"runtime.num_gc", "count"}, {"runtime.heap_peak_mb", "MB"},
	{"host.steal_share", "ratio"}, {"host.cpu_per_wall", "ratio"}, {"wall_ms_p50", "ms"}, {"wall_ms_p90", "ms"},
	{"trace.overhead", "ratio"}, {"trace.residual_ns", "ns"}, {"trace.spans", "count"},
	{"cpu_share.expr", "ratio"}, {"cpu_share.rtl", "ratio"}, {"cpu_share.decoder", "ratio"},
	{"cpu_share.core", "ratio"}, {"cpu_share.smt", "ratio"}, {"cpu_share.smt_sat", "ratio"},
	{"cpu_share.service", "ratio"}, {"cpu_share.net_http", "ratio"}, {"cpu_share.net", "ratio"},
	{"cpu_share.syscall", "ratio"}, {"cpu_share.maps", "ratio"}, {"cpu_share.runtime", "ratio"}, {"cpu_share.other", "ratio"},
}

func main() {
	workload := flag.String("workload", "", "ladder | straightline | bughunt | symexd")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, scratch: ".bench_build"}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	r := newReport()
	var err error
	if k, ok := engineKinds[cfg.workload]; ok {
		err = runEngine(k, cfg, r)
	} else if cfg.workload == "symexd" {
		err = runDaemon(cfg, r)
	} else {
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	if cfg.trace {
		path := filepath.Join(cfg.scratch, "trace", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("# spans: %s\n", path)
	}
	keys := make([]string, 0, len(r.diag))
	for k := range r.diag {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# %s %.4f\n", k, r.diag[k])
	}

	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.e2e}
	if cfg.trace {
		out.Metrics = map[string]metric{}
		for _, m := range perLayer {
			v := r.layers[m.name]
			out.Metrics[m.name] = metric{v.Value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
