package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/conc"
	"repro/internal/core"
)

// Same seed, same images and same exact counts; another seed, other
// images.
func TestGeneratorDeterminism(t *testing.T) {
	for name, k := range engineKinds {
		a, b, c := k.pool(7), k.pool(7), k.pool(8)
		pa, err := prepare(a, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := prepare(b, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := prepare(c, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range pa.progs {
			if !bytes.Equal(pa.progs[i].Marshal(), pb.progs[i].Marshal()) {
				t.Errorf("%s: image %d differs between two generations of seed 7", name, i)
			}
			if bytes.Equal(pa.progs[i].Marshal(), pc.progs[i].Marshal()) {
				same++
			}
		}
		if same == len(pa.progs) {
			t.Errorf("%s: seeds 7 and 8 give the same images", name)
		}
		// Exact counters repeat for the same program (first unit of
		// each ISA, to keep the test short).
		for i := 0; i < len(a); i += len(a) / len(isas) {
			u := a[i]
			run := func(p *prepared) counts {
				e := core.NewEngine(p.archs[u.ISA], p.progs[i], k.opts(u))
				for _, c := range checker.All() {
					e.AddChecker(c)
				}
				rep, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				if err := k.check(u, p.archs[u.ISA], p.progs[i], rep); err != nil {
					t.Errorf("%s: %v", u.Name, err)
				}
				return countsOf(rep)
			}
			if x, y := run(pa), run(pb); x != y {
				t.Errorf("%s: counts differ between runs: %+v vs %+v", u.Name, x, y)
			}
		}
	}
}

func TestDaemonSequenceDeterministic(t *testing.T) {
	a, b := daemonSequence(5, 0), daemonSequence(5, 0)
	repeats := 0
	for i := 0; i < 300; i++ {
		x, y := a(), b()
		if x != y {
			t.Fatalf("job %d: %+v vs %+v", i, x, y)
		}
		if x.repeat {
			repeats++
		}
	}
	if repeats < 70 || repeats > 130 {
		t.Errorf("%d of 300 jobs are resubmissions, want about a third", repeats)
	}
	// Opposite parities: no threshold or hash constant is shared.
	for _, u0 := range daemonImages(5, 0)[:50] {
		for _, u1 := range daemonImages(5, 1)[:50] {
			if u0.Kind == "ladder" && u1.Kind == "ladder" && u0.Thresh[0]%2 == u1.Thresh[0]%2 {
				t.Fatalf("%s and %s share threshold parity", u0.Name, u1.Name)
			}
			if u0.Kind == "bughunt" && u1.Kind == "bughunt" && u0.Init%2 == u1.Init%2 {
				t.Fatalf("%s and %s share hash parity", u0.Name, u1.Name)
			}
		}
	}
}

// The Go references agree with the concrete emulator on the generated
// programs, so a reference check failing points at the engine.
func TestReferencesMatchEmulator(t *testing.T) {
	units := append(append(LadderPool(3, 2), StraightPool(3, 2)...), BughuntPool(3, 2)...)
	p, err := prepare(units, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range units {
		m := conc.NewMachine(p.archs[u.ISA])
		m.LoadProgram(p.progs[i])
		in := []byte{0x9c, 0x41, 0xe7, 0x10, 0x55, 0xfe, 0x02, 0x80}[:u.Inputs]
		m.Input = append([]byte(nil), in...)
		stop := m.Run(1 << 20)
		switch u.Kind {
		case "ladder":
			if stop.Kind != conc.StopExit || len(m.Output) != 1 || m.Output[0] != LadderOutput(u, in) {
				t.Errorf("%s: %v output %v, reference %d", u.Name, stop, m.Output, LadderOutput(u, in))
			}
		case "straightline":
			want := Checksum(u, in)
			for i, b := range m.Output {
				if uint64(b) != want>>(8*i)&0xff {
					t.Errorf("%s: output %x, reference %#x", u.Name, m.Output, want)
					break
				}
			}
			if stop.Kind != conc.StopExit || len(m.Output) != int(isaBits(u.ISA)/8) {
				t.Errorf("%s: %v with %d output bytes", u.Name, stop, len(m.Output))
			}
		case "bughunt":
			// A non-matching input takes the reject path and exits.
			if RollingHash(u, in)&0xffff != u.Target && stop.Kind != conc.StopExit {
				t.Errorf("%s: %v on a non-matching input", u.Name, stop)
			}
		}
	}
}

func TestPercentileRule(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so sorting matters
		}
		return s
	}
	if _, err := percentile(xs(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it; want an error")
	}
	if v, err := percentile(xs(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples has 9 beyond it; want an error")
	}
	if v, err := percentile(xs(20), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if minSamples(0.9) != 100 || minSamples(0.5) != 20 {
		t.Errorf("minSamples = %d, %d; want 100, 20", minSamples(0.9), minSamples(0.5))
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 {
		t.Error("median of an even count is the mean of the middle two")
	}
}

func TestCPUAccounting(t *testing.T) {
	c0 := cpuTime()
	time.Sleep(60 * time.Millisecond)
	if d := cpuTime() - c0; d > 30*time.Millisecond {
		t.Errorf("sleeping 60ms charged %v of CPU", d)
	}
	c0, t0 := cpuTime(), time.Now()
	x := 0
	for time.Since(t0) < 60*time.Millisecond {
		x++
	}
	if d := cpuTime() - c0; d < 20*time.Millisecond {
		t.Errorf("spinning 60ms charged only %v of CPU", d)
	}

	v, err := parseVmHWM(strings.NewReader("VmPeak:\t  9000 kB\nVmHWM:\t  3072 kB\nVmRSS:\t 1000 kB\n"))
	if err != nil || v != 3 {
		t.Errorf("VmHWM 3072 kB = %v MB, %v; want 3", v, err)
	}
	before, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	after, err := peakRSSMB()
	if err != nil {
		t.Fatal(err)
	}
	if after-before < 32 && after < 64 {
		t.Errorf("touching 64 MB moved VmHWM from %.1f to %.1f MB", before, after)
	}
	_ = buf[len(buf)-1]

	a, err := parseHostTicks("cpu  100 0 50 800 0 0 0 50 10 0\ncpu0 1 2 3\n")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := parseHostTicks("cpu  200 0 100 1500 0 0 0 200 20 0\n")
	if a.total != 1000 || a.steal != 50 || stealShare(a, b) != 0.15 {
		t.Errorf("ticks %+v %+v steal share %v; want total 1000, steal 50, share 0.15", a, b, stealShare(a, b))
	}
	if _, err := parseHostTicks("intr 1 2 3"); err == nil {
		t.Error("a /proc/stat without a cpu line parsed")
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := Span{Name: "p", StartNS: 0, DurNS: 100}
	kids := []Span{
		{StartNS: 10, DurNS: 20},  // [10,30)
		{StartNS: 20, DurNS: 20},  // [20,40) overlaps the first: 10 more
		{StartNS: 90, DurNS: 30},  // [90,120) clipped to [90,100)
		{StartNS: 200, DurNS: 10}, // outside
	}
	if got := selfNS(parent, kids); got != 60 {
		t.Errorf("self = %d, want 100 - 30 - 10 = 60", got)
	}
	if got := selfNS(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}

	// Reported children are laid back to back inside the parent, so
	// children plus self add up to the parent's duration.
	tr := newTracer()
	tr.spans = append(tr.spans, Span{Name: "core.run", Unit: 1, StartNS: 1000, DurNS: 500})
	tr.reported("core.run", 1, []Span{{Name: "smt.solve", DurNS: 300}, {Name: "smt.blast", DurNS: 50}})
	total, self, residual := tr.layerTimes()
	if self["core.run"] != 150 || total["smt.solve"] != 300 || total["smt.blast"] != 50 || residual != 0 {
		t.Errorf("self %v total %v residual %d; want core.run self 150, residual 0", self, total, residual)
	}
	// The symexd clients record concurrently (run with -race).
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.span("service.submit", g<<24|i, "", time.Now())
			}
		}(g)
	}
	wg.Wait()
	if len(tr.spans) != 3+400 {
		t.Errorf("%d spans after 400 concurrent records, want 403", len(tr.spans))
	}
	var nilTracer *Tracer
	nilTracer.span("x", 0, "", time.Now()) // untraced runs: no-op
}

// BENCHMARK.json declares exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %+v, benchmark prints %+v", i, b.PerLayer[i], m)
		}
	}
	r := newReport()
	ph := &phase{cpu: time.Second, wall: time.Second}
	for i := 0; i < 100; i++ {
		ph.unitCPU = append(ph.unitCPU, float64(i))
		ph.unitWall = append(ph.unitWall, float64(i))
	}
	if err := r.setE2E(ph, 1); err != nil {
		t.Fatal(err)
	}
	if len(r.e2e) != len(b.EndToEnd) {
		t.Errorf("benchmark prints %d end-to-end metrics, BENCHMARK.json declares %d", len(r.e2e), len(b.EndToEnd))
	}
	for _, m := range b.EndToEnd {
		if got, ok := r.e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %s (%s): printed as %+v", m.Name, m.Unit, got)
		}
	}
}
