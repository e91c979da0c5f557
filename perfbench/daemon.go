package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/adl"
	"repro/internal/prog"
	"repro/internal/service"
)

// The symexd workload: a closed loop of daemonClients clients, each
// submitting its next job only after the previous one's done event,
// against an in-process daemon at its default scheduler settings with
// the journal, checkpoints, ledger and persistent solver cache armed.
const (
	daemonClients  = 2   // one per core of the reference machine
	daemonFresh    = 700 // fresh images per client, assembled in set-up
	daemonPrefix   = 40  // jobs per client whose exact counts are reported
	daemonCPUBatch = 8   // jobs per process-CPU sample (jobs overlap)
	// The end-to-end metrics cover the first daemonMeasured jobs of a
	// phase, however many more the time allows: later jobs find a warmer
	// cache and a fuller job table, so a measure over all of them would
	// move with the host's speed.
	daemonMeasured = 130 * daemonCPUBatch
	daemonLadderK  = 7
	daemonHuntN    = 6
	// Concolic jobs stop after this many concrete runs: a concolic
	// ladder then costs about what an explored one does, so the CPU of a
	// batch of jobs does not hinge on how many concolic ladders it holds.
	daemonMaxRuns = 16

	daemonOvertime = 60 * time.Second // longest a phase may run past its time
)

// daemonJob is one submission of a client's sequence.
type daemonJob struct {
	fresh  int  // index into the client's fresh images
	repeat bool // resubmission of an image whose earlier job completed
	mode   string
}

// daemonImages draws a client's fresh images: small ladders and
// bughunts on all three ISAs. Client c uses constants of parity c, so no
// solver query of one client can be answered by the other's cache
// entries and every job's cache hits repeat exactly.
func daemonImages(seed uint64, client int) []Unit {
	r := rng(seed, fmt.Sprintf("symexd-%d", client))
	out := make([]Unit, daemonFresh)
	for i := range out {
		isa := isas[r.IntN(len(isas))]
		name := fmt.Sprintf("symexd-%d-%d-%s", client, i, isa)
		if r.IntN(2) == 0 {
			out[i] = ladderUnit(r, name, isa, daemonLadderK, 32+r.IntN(64), client)
		} else {
			out[i] = bughuntUnit(r, name, isa, daemonHuntN, 17+2*r.IntN(24), client)
		}
	}
	return out
}

// daemonSequence returns a client's job stream: about a third of the
// jobs resubmit an earlier job's image and mode (the cache read path),
// the rest take the next fresh image (the cache write path).
func daemonSequence(seed uint64, client int) func() daemonJob {
	r := rng(seed, fmt.Sprintf("symexd-seq-%d", client))
	var done []daemonJob
	next := 0
	return func() daemonJob {
		var j daemonJob
		if len(done) > 0 && r.IntN(3) == 0 {
			j = done[r.IntN(len(done))]
			j.repeat = true
		} else {
			j = daemonJob{fresh: next % daemonFresh, mode: [2]string{"explore", "concolic"}[r.IntN(2)]}
			next++
		}
		done = append(done, daemonJob{fresh: j.fresh, mode: j.mode})
		return j
	}
}

func jobSpec(u Unit, img []byte, mode string) service.JobSpec {
	spec := service.JobSpec{Image: img, Arch: u.ISA, Mode: mode, Inputs: u.Inputs, MaxSteps: 10000, MaxPaths: 256}
	if mode == "concolic" {
		spec.Seed = make([]byte, u.Inputs)
		spec.MaxRuns = daemonMaxRuns
	}
	return spec
}

// daemon is one started in-process symexd.
type daemon struct {
	dir string
	srv *service.Server
	hs  *service.HTTPServer
}

func startDaemon(base string) (*daemon, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "symexd-")
	if err != nil {
		return nil, err
	}
	srv, err := service.New(service.Config{
		StateDir:  filepath.Join(dir, "state"),
		LedgerDir: filepath.Join(dir, "ledger"),
		CacheFile: filepath.Join(dir, "solver.cache"),
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	hs, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	return &daemon{dir: dir, srv: srv, hs: hs}, nil
}

func (d *daemon) stop() error {
	err := errors.Join(d.hs.Close(), d.srv.Close())
	return errors.Join(err, os.RemoveAll(d.dir))
}

// jobSample is one completed job as the client saw it.
type jobSample struct {
	seq             int
	latMS, submitMS float64
	runMS           float64
	stats           service.JobStats
	repeat          bool
}

func runDaemon(cfg config, r *report) error {
	imgs := make([][]Unit, daemonClients)
	var all []Unit
	for c := range imgs {
		imgs[c] = daemonImages(cfg.seed, c)
		all = append(all, imgs[c]...)
	}

	// Set-up: ADL loads, assembly of every image, and the daemon's
	// start (service.New plus the listener), repeated; the last is kept.
	var totals, starts, load, assemb []float64
	var p *prepared
	var d *daemon
	var spent time.Duration
	for rep := 0; moreSetup(rep, spent); rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
		}
		c0 := cpuTime()
		var err error
		if p, err = prepare(all, cfg.tr, rep); err != nil {
			return err
		}
		ts := time.Now()
		if d, err = startDaemon(filepath.Join(cfg.scratch, "tmp")); err != nil {
			return err
		}
		cfg.tr.span("service.start", -rep-1, "", ts)
		starts = append(starts, ms(time.Since(ts)))
		c := cpuTime() - c0
		spent += c
		totals = append(totals, c.Seconds())
		load = append(load, ms(p.load))
		assemb = append(assemb, ms(p.assemb))
	}
	defer func() { d.stop() }()
	r.setupS = median(totals)
	r.layer("adl.load_ms", median(load), "ms")
	r.layer("asm.assemble_ms", median(assemb), "ms")
	r.layer("asm.image_bytes", float64(p.imageBytes), "bytes")
	r.layer("service.start_ms", median(starts), "ms")
	images := make([][][]byte, daemonClients)
	for c := range images {
		for i := range imgs[c] {
			images[c] = append(images[c], p.progs[c*daemonFresh+i].Marshal())
		}
	}

	// A phase replays the seeded job sequences from their start. Each
	// phase of a traced run gets a fresh daemon, so all of them serve the
	// same jobs against an equally cold cache and their CPU per job can be
	// compared.
	runPhase := func(dur time.Duration, tr *Tracer) (ph *phase, jobs []jobSample, rejected int, err error) {
		ph = &phase{}
		next := make([]func() daemonJob, daemonClients)
		seqNo := make([]int, daemonClients)
		for c := range next {
			next[c] = daemonSequence(cfg.seed, c)
		}
		var mu sync.Mutex
		batchCPU, done := cpuTime(), 0
		w, err := openWindow()
		if err != nil {
			return nil, nil, 0, err
		}
		// completed counts a finished job, with mu held. Jobs overlap, so
		// CPU is charged per batch of completions rather than per job.
		completed := func() {
			r.attempted++
			done++
			if done%daemonCPUBatch != 0 || done > daemonMeasured {
				return
			}
			now := cpuTime()
			ph.unitCPU = append(ph.unitCPU, ms(now-batchCPU)/daemonCPUBatch)
			if tr != nil {
				ph.heapMax = max(ph.heapMax, readRT()[rtHeapBytes])
			}
			batchCPU = now
			if done == daemonMeasured {
				ph.measured = now - w.cpu
				rss, err := peakRSSMB()
				if err != nil {
					r.fail("reading VmHWM: %v", err)
				}
				ph.rssMB = rss
			}
		}
		var wg sync.WaitGroup
		for c := 0; c < daemonClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				cl := service.NewClient(d.hs.Addr())
				for ; ; seqNo[c]++ {
					// Past the time, run on until the percentile rule can
					// be met, but not forever when jobs keep failing.
					mu.Lock()
					el := time.Since(w.wall)
					stop := el >= dur && (done >= daemonMeasured || el >= dur+daemonOvertime)
					mu.Unlock()
					if stop {
						return
					}
					j := next[c]()
					u := imgs[c][j.fresh]
					id := c<<24 | seqNo[c]
					t0 := time.Now()
					st, err := cl.Submit(jobSpec(u, images[c][j.fresh], j.mode))
					submit := time.Since(t0)
					tr.span("service.submit", id, "", t0)
					if err != nil {
						mu.Lock()
						var je *service.JobError
						if errors.As(err, &je) && je.Code == service.CodeQueueFull {
							rejected++
						}
						r.fail("%s: submit: %v", u.Name, err)
						completed()
						mu.Unlock()
						continue
					}
					t1 := time.Now()
					evs, err := cl.Results(st.ID, true)
					lat := time.Since(t0)
					tr.span("service.results", id, "", t1)

					tc := time.Now()
					s := jobSample{seq: seqNo[c], latMS: ms(lat), submitMS: ms(submit), repeat: j.repeat}
					if err == nil {
						err = checkJob(u, p.archs[u.ISA], p.progs[c*daemonFresh+j.fresh], j.mode, evs, &s)
					}
					tr.span("check.verify", id, "", tc)
					mu.Lock()
					if err != nil {
						r.fail("%s (%s, job %s): %v", u.Name, j.mode, st.ID, err)
					} else {
						jobs = append(jobs, s)
						ph.unitWall = append(ph.unitWall, s.latMS)
					}
					completed()
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		return ph, jobs, rejected, w.close(ph)
	}

	if !cfg.trace {
		ph, _, _, err := runPhase(cfg.seconds, nil)
		if err != nil {
			return err
		}
		if ph.measured == 0 {
			return fmt.Errorf("only %d of %d measured jobs completed", len(ph.unitCPU)*daemonCPUBatch, daemonMeasured)
		}
		return r.setE2E(ph, daemonMeasured/ph.measured.Seconds())
	}
	// Traced run: a traced third between two untraced thirds, each on a
	// fresh daemon replaying the same jobs (see runEngine).
	restart := func() error {
		if err := d.stop(); err != nil {
			return err
		}
		var err error
		d, err = startDaemon(filepath.Join(cfg.scratch, "tmp"))
		return err
	}
	third := cfg.seconds / 3
	before, _, _, err := runPhase(third, nil)
	if err != nil {
		return err
	}
	if err := restart(); err != nil {
		return err
	}
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	traced, jobs, rejected, err := runPhase(third, cfg.tr)
	shares, perr := prof.stop()
	if err = errors.Join(err, perr); err != nil {
		return err
	}
	met, err := scrape(service.NewClient(d.hs.Addr()))
	if err != nil {
		return err
	}
	if err := restart(); err != nil {
		return err
	}
	after, _, _, err := runPhase(third, nil)
	if err != nil {
		return err
	}
	daemonLayers(r, jobs, met, rejected)
	r.traceLayers(before.merge(after), traced, shares, cfg.tr)
	return nil
}

// checkJob checks one job's result stream against the references and
// fills the sample's stats.
func checkJob(u Unit, a *adl.Arch, pg *prog.Program, mode string, evs []service.Event, s *jobSample) error {
	var paths []*service.PathEvent
	var bugs []*service.BugEvent
	for _, ev := range evs {
		switch ev.Type {
		case "path":
			paths = append(paths, ev.Path)
		case "bug":
			bugs = append(bugs, ev.Bug)
		case "fault":
			return fmt.Errorf("fault event: %+v", ev.Fault)
		case "done":
			s.stats = *ev.Done
		}
	}
	if s.stats == (service.JobStats{}) {
		return fmt.Errorf("no done event in %d events", len(evs))
	}
	s.runMS = float64(s.stats.WallMS)
	st := s.stats
	if st.Paths != len(paths) || st.Bugs != len(bugs) {
		return fmt.Errorf("stats say %d paths, %d bugs; stream has %d, %d", st.Paths, st.Bugs, len(paths), len(bugs))
	}
	if st.CacheHits+st.CacheMisses != st.SolverQs {
		return fmt.Errorf("%d cache hits + %d misses for %d queries", st.CacheHits, st.CacheMisses, st.SolverQs)
	}
	if s.repeat && st.CacheMisses != 0 {
		return fmt.Errorf("resubmitted image missed the cache %d times", st.CacheMisses)
	}
	switch u.Kind {
	case "ladder":
		n := 1 << len(u.Thresh)
		want := n
		if mode == "concolic" {
			want = min(n, daemonMaxRuns)
		}
		if st.Paths != want || st.Bugs != 0 {
			return fmt.Errorf("%d paths, %d bugs; want %d, 0", st.Paths, st.Bugs, want)
		}
		if mode == "explore" {
			if st.Forks != int64(n-1) || st.SolverQs != int64(2*(n-1)) {
				return fmt.Errorf("%d forks, %d queries; want %d, %d", st.Forks, st.SolverQs, n-1, 2*(n-1))
			}
			return nil
		}
		// Concolic: the concrete runs' inputs must cover every branch
		// pattern of the reference exactly once.
		seen := map[int]bool{}
		for _, p := range paths {
			in := make([]byte, u.Inputs)
			copy(in, p.Input)
			pat := 0
			for i, t := range u.Thresh {
				if in[i] >= t {
					pat |= 1 << i
				}
			}
			if seen[pat] {
				return fmt.Errorf("two concolic runs take branch pattern %b", pat)
			}
			seen[pat] = true
		}
		return nil
	case "bughunt":
		if len(bugs) == 0 {
			return fmt.Errorf("no bug found (%d paths)", st.Paths)
		}
		b := bugs[0]
		return checkWitness(u, a, pg, b.Check, b.PC, b.Input)
	}
	return fmt.Errorf("unknown unit kind %q", u.Kind)
}

// scrape reads the daemon's /metrics into name -> value (labels kept in
// the name).
func scrape(cl *service.Client) (map[string]float64, error) {
	txt, err := cl.Metrics()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(txt, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// daemonLayers fills the symexd per-layer metrics. Exact counts are
// totals over the first daemonPrefix jobs of each client, which repeat
// exactly for a seed: each client's cache hits depend only on its own
// earlier jobs.
func daemonLayers(r *report, samples []jobSample, met map[string]float64, rejected int) {
	var paths, forks, insns, qs, hits, misses, bugs float64
	var submit, run, wait []float64
	for _, s := range samples {
		submit = append(submit, s.submitMS)
		run = append(run, s.runMS)
		wait = append(wait, s.latMS-s.runMS)
		if s.seq >= daemonPrefix {
			continue
		}
		st := s.stats
		paths += float64(st.Paths)
		forks += float64(st.Forks)
		insns += float64(st.Instructions)
		qs += float64(st.SolverQs)
		hits += float64(st.CacheHits)
		misses += float64(st.CacheMisses)
		bugs += float64(st.Bugs)
	}
	r.layer("core.paths", paths, "count")
	r.layer("core.forks", forks, "count")
	r.layer("core.instructions", insns, "count")
	r.layer("smt.queries", qs, "count")
	r.layer("smt.cache_hit_rate", ratio(hits, hits+misses), "ratio")
	r.layer("checker.bugs", bugs, "count")
	r.layer("service.submit_ms", mean(submit), "ms")
	r.layer("service.run_ms", mean(run), "ms")
	r.layer("service.wait_ms", mean(wait), "ms")
	r.layer("service.attempted", float64(r.attempted), "count")
	r.layer("service.failed", float64(r.failed), "count")
	r.layer("service.rejected", float64(rejected), "count")
	done := met[`service_jobs_completed_total{status="done"}`]
	r.layer("wal.appends_per_job", ratio(met["service_journal_appends_total"], done), "count")
	r.layer("wal.cache_loaded", met["service_persist_loaded"], "count")
	r.layer("wal.cache_persisted", met["service_persist_flushed_total"], "count")
}
