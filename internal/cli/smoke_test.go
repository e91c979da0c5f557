// CLI smoke (wired into `make cli-smoke`): build the real symex, emu,
// difftest and experiments binaries, pin each one's flag names, and
// check that every output the instrument flags ask for is written,
// parses, and is announced on stderr with its usual line.
package cli_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/cmdtest"
	"repro/internal/cover"
	"repro/internal/harness"
	"repro/internal/profile"
)

// run executes bin and returns its stderr, failing the test on a
// nonzero exit.
func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return stderr.String()
}

var flagLine = regexp.MustCompile(`(?m)^  -([^ \t\n]+)`)

// TestFlagNamesPinned holds each command to the flag names it accepts,
// read from its -h output: collapsing the instrument flags into one
// package adds and drops none.
func TestFlagNamesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the command binaries")
	}
	want := map[string]string{
		"symex":       "inputs steps paths strategy paths-detail dump-smtlib concolic seed workers no-query-cache solver-deadline state-budget obs-addr trace-out cover cover-out profile profile-out profile-json ledger ledger-gate ledger-fake-slowdown",
		"difftest":    "duration rounds seed arch workers steps corpus obs-addr trace-out cover cover-out cover-guided cover-target cover-min layers profile profile-out chaos chaos-period service-addr ledger v adl",
		"emu":         "input steps trace no-compile cover cover-out",
		"experiments": "only workers obs-addr ledger bench-out",
	}
	bins := cmdtest.Build(t, t.TempDir(), "symex", "difftest", "emu", "experiments")
	for name, bin := range bins {
		// -h prints the flags to stderr and exits 0.
		out, err := exec.Command(bin, "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", name, err, out)
		}
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(string(out), -1) {
			got = append(got, m[1])
		}
		sort.Strings(got)
		exp := strings.Fields(want[name])
		sort.Strings(exp)
		if !reflect.DeepEqual(got, exp) {
			t.Errorf("%s flags:\n got %v\nwant %v", name, got, exp)
		}
	}
}

// TestCLISmoke runs symex with every file-writing instrument flag on a
// 6-branch ladder, and emu with -cover-out, and parses what they wrote.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the command binaries")
	}
	dir := t.TempDir()
	bins := cmdtest.Build(t, dir, "symex", "emu")

	a, err := arch.Load("tiny32")
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.New(a).Assemble("ladder.s", harness.BranchLadder("tiny32", 6))
	if err != nil {
		t.Fatal(err)
	}
	img := filepath.Join(dir, "ladder.rimg")
	if err := os.WriteFile(img, p.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	coverOut := filepath.Join(dir, "cover.json")
	profOut := filepath.Join(dir, "prof.pb.gz")
	profJSON := filepath.Join(dir, "prof.json")
	traceOut := filepath.Join(dir, "trace.json")
	stderr := run(t, bins["symex"], "-inputs", "6", "-cover-out", coverOut,
		"-profile-out", profOut, "-profile-json", profJSON, "-trace-out", traceOut, img)

	for _, line := range []string{
		"cover-out: wrote coverage report to " + coverOut + "\n",
		"profile-out: wrote pprof profile to " + profOut + " (go tool pprof -top " + profOut + ")\n",
		"profile-json: wrote profile report to " + profJSON + "\n",
	} {
		if !strings.Contains(stderr, line) {
			t.Errorf("stderr lacks %q:\n%s", line, stderr)
		}
	}
	if !regexp.MustCompile(`(?m)^trace-out: [1-9][0-9]* events -> ` + regexp.QuoteMeta(traceOut) +
		` \(open with ui\.perfetto\.dev\)$`).MatchString(stderr) {
		t.Errorf("stderr lacks the trace-out line:\n%s", stderr)
	}
	// -cover-out implies -cover: the matrix follows on stderr.
	if !strings.Contains(stderr, "isa tiny32") {
		t.Errorf("stderr lacks the coverage matrix:\n%s", stderr)
	}
	// -profile-out and -profile-json imply -profile: so does the
	// hotspot report.
	if !strings.Contains(stderr, "exploration profile (tiny32)\n") {
		t.Errorf("stderr lacks the hotspot report:\n%s", stderr)
	}
	// One side of each of the ladder's 63 forks is answered by the
	// parent state's model.
	if !regexp.MustCompile(`(?m)^query cache: [0-9]+ hits \(63 from parent models\) / [0-9]+ misses `).MatchString(stderr) {
		t.Errorf("stderr lacks the query cache line with its model hits:\n%s", stderr)
	}

	readCover := func(path string) {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := cover.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if rep.ISA("tiny32") == nil {
			t.Errorf("%s: no tiny32 report", path)
		}
	}
	readCover(coverOut)

	data, err := os.ReadFile(profOut)
	if err != nil {
		t.Fatal(err)
	}
	if parsed, err := profile.Parse(data); err != nil {
		t.Errorf("%s: %v", profOut, err)
	} else if len(parsed.Samples) == 0 {
		t.Errorf("%s: no samples", profOut)
	}

	var rep profile.Report
	if data, err = os.ReadFile(profJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Errorf("%s: %v", profJSON, err)
	} else if rep.Meta.ADL != "tiny32" || len(rep.Hotspots) == 0 {
		t.Errorf("%s: meta %+v, %d hotspots", profJSON, rep.Meta, len(rep.Hotspots))
	}

	var trace struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if data, err = os.ReadFile(traceOut); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Errorf("%s: %v", traceOut, err)
	} else if len(trace.TraceEvents) == 0 {
		t.Errorf("%s: no trace events", traceOut)
	}

	emuCover := filepath.Join(dir, "emu-cover.json")
	stderr = run(t, bins["emu"], "-input", "abcdef", "-cover-out", emuCover, img)
	if line := "cover-out: wrote coverage report to " + emuCover + "\n"; !strings.Contains(stderr, line) {
		t.Errorf("emu stderr lacks %q:\n%s", line, stderr)
	}
	readCover(emuCover)
}
