package cli_test

import (
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/arch"
	"repro/internal/asm"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/profile"
)

// TestInstrumentsEndpoint arms the instruments the way symex does for
// -obs-addr 127.0.0.1:0 -profile -cover, feeds them one exploration, and
// reads the live endpoint: the profiler and build_info are attached,
// and /coverage answers.
func TestInstrumentsEndpoint(t *testing.T) {
	fs := flag.NewFlagSet("symex", flag.ContinueOnError)
	inst := cli.Register(fs, cli.ObsAddr|cli.TraceOut|cli.Cover|cli.Profile|cli.ProfileJSON|cli.Ledger|cli.LedgerGate)
	if err := fs.Parse([]string{"-obs-addr", "127.0.0.1:0", "-profile", "-cover"}); err != nil {
		t.Fatal(err)
	}
	if err := inst.Arm("tiny32"); err != nil {
		t.Fatal(err)
	}
	defer inst.Close()

	a := arch.MustLoad("tiny32")
	p, err := asm.New(a).Assemble("ladder.s", harness.BranchLadder("tiny32", 4))
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(a, p, core.Options{
		InputBytes: 4, Obs: inst.Obs, Cover: inst.Cover, Profile: inst.Profile,
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}

	fetch := func(path string) []byte {
		t.Helper()
		res, err := http.Get("http://" + inst.ObsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer res.Body.Close()
		body, err := io.ReadAll(res.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if res.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, res.StatusCode, body)
		}
		return body
	}
	parsed, err := profile.Parse(fetch("/debug/profile"))
	if err != nil {
		t.Fatalf("/debug/profile: %v", err)
	}
	if len(parsed.Samples) == 0 {
		t.Error("/debug/profile has no samples")
	}
	if m := string(fetch("/metrics")); !strings.Contains(m, "build_info{") {
		t.Errorf("/metrics has no build_info:\n%s", m)
	}
	if c := string(fetch("/coverage")); !strings.Contains(c, "isa tiny32") {
		t.Errorf("/coverage does not report tiny32:\n%s", c)
	}
}
