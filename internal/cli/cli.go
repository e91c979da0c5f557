// Package cli owns the instrument flags the command-line tools share —
// -obs-addr, -trace-out, -cover, -cover-out, -profile, -profile-out,
// -profile-json, -ledger, -ledger-gate and -ledger-fake-slowdown — end
// to end. A command registers the subset it accepts, arms the
// instruments once its flags are parsed, hands them to its run, and
// calls Finish at exit to write every output. Human-readable output
// goes to stderr, so a command's stdout stays pipeable. The table of
// which command accepts which flag is in docs/observability.md.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/arch"
	"repro/internal/cover"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Set selects the instrument flags a command registers.
type Set uint

const (
	ObsAddr     Set = 1 << iota // -obs-addr
	TraceOut                    // -trace-out
	Cover                       // -cover, -cover-out
	Profile                     // -profile, -profile-out
	ProfileJSON                 // -profile-json
	Ledger                      // -ledger
	LedgerGate                  // -ledger-gate, -ledger-fake-slowdown
)

// ErrRegressed is returned by Finish when -ledger-gate finds the run
// regressed against the rolling median of its prior same-config runs.
// The regressed metrics are already on stderr.
var ErrRegressed = errors.New("ledger-gate: run regressed")

// Instruments holds the instrument flag values and, after Arm, the
// instruments they armed. An instrument the flags leave off is nil.
type Instruments struct {
	ObsAddr        string
	TraceOut       string
	CoverOn        bool
	CoverOut       string
	ProfileOn      bool
	ProfileOut     string
	ProfileJSON    string
	LedgerDir      string
	LedgerGate     bool
	LedgerSlowdown time.Duration

	Obs     *obs.Obs
	Cover   *cover.Collector
	Profile *profile.Profiler

	set Set
	srv *obs.Server
}

// Register registers the flags of set on fs and returns the
// Instruments their values parse into.
func Register(fs *flag.FlagSet, set Set) *Instruments {
	x := &Instruments{set: set}
	if set&ObsAddr != 0 {
		fs.StringVar(&x.ObsAddr, "obs-addr", "", "serve live /metrics, /coverage, expvar and pprof on this address")
	}
	if set&TraceOut != 0 {
		fs.StringVar(&x.TraceOut, "trace-out", "", "write the exploration trace as Chrome trace_event JSON to this file")
	}
	if set&Cover != 0 {
		fs.BoolVar(&x.CoverOn, "cover", false, "collect semantic coverage; the matrix goes to stderr")
		fs.StringVar(&x.CoverOut, "cover-out", "", "write the coverage report as JSON to this file (implies -cover)")
	}
	if set&Profile != 0 {
		fs.BoolVar(&x.ProfileOn, "profile", false, "attribute exploration cost to guest PCs; the hotspot report goes to stderr")
		fs.StringVar(&x.ProfileOut, "profile-out", "", "write the exploration profile as gzipped pprof protobuf to this file (implies -profile)")
	}
	if set&ProfileJSON != 0 {
		fs.StringVar(&x.ProfileJSON, "profile-json", "", "write the exploration profile report as JSON to this file (implies -profile)")
	}
	if set&Ledger != 0 {
		fs.StringVar(&x.LedgerDir, "ledger", "", "append this run's record to the run ledger in this directory (docs/observability.md)")
	}
	if set&LedgerGate != 0 {
		fs.BoolVar(&x.LedgerGate, "ledger-gate", false, "gate this run against its rolling same-config baseline; a regression names the metric on stderr and exits 5")
		fs.DurationVar(&x.LedgerSlowdown, "ledger-fake-slowdown", 0, "testing aid: inflate the recorded wall and solver times by this duration before gating")
	}
	return x
}

// Arm builds the instruments the parsed flags ask for and, with
// -obs-addr, starts serving them until Close; ObsAddr then holds the
// bound address. adl names the described architecture in the profile.
// Coverage is collected whenever the endpoint is up in a command that
// takes -cover, so /coverage answers with no extra flag.
func (x *Instruments) Arm(adl string) error {
	if x.CoverOn || x.CoverOut != "" || x.ObsAddr != "" && x.set&Cover != 0 {
		x.Cover = cover.New()
	}
	if x.ProfileOn || x.ProfileOut != "" || x.ProfileJSON != "" {
		x.Profile = profile.New(profile.Meta{ADL: adl})
	}
	if x.ObsAddr == "" && x.TraceOut == "" {
		return nil
	}
	if x.TraceOut != "" {
		x.Obs = obs.NewTracing()
	} else {
		x.Obs = obs.New()
	}
	// Assigned only when armed: a nil pointer in an interface field
	// would read as a live source.
	if x.Cover != nil {
		x.Obs.Cover = x.Cover
	}
	if x.Profile != nil {
		x.Obs.Profile = x.Profile
	}
	obs.RegisterBuildInfo(x.Obs.Reg, len(arch.Names()))
	if x.ObsAddr == "" {
		return nil
	}
	srv, err := obs.Serve(x.ObsAddr, x.Obs)
	if err != nil {
		return err
	}
	x.srv, x.ObsAddr = srv, srv.Addr()
	fmt.Fprintf(os.Stderr, "obs: serving /metrics, /debug/vars, /debug/pprof on %s\n", x.ObsAddr)
	return nil
}

// Close stops the endpoint, if it is up.
func (x *Instruments) Close() {
	if x.srv != nil {
		x.srv.Close()
	}
}

// Finish writes every output the flags ask for, in order: the Chrome
// trace, the coverage JSON and matrix, the pprof profile, the profile
// JSON and hotspot report (printed whenever a profile flag armed the
// profiler, as a coverage flag prints the matrix), and with -ledger the
// run record, which record builds from the coverage and profile reports
// (empty when that instrument is off). With -ledger-gate it then prints
// the gate's verdict and returns ErrRegressed on a regression. Any other
// error names the flag whose output failed.
func (x *Instruments) Finish(record func(*cover.Report, *profile.Report) ledger.Record) error {
	if x.TraceOut != "" {
		if err := x.Obs.Trace.WriteChromeFile(x.TraceOut); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace-out: %d events -> %s (open with ui.perfetto.dev)\n",
			x.Obs.Trace.Len(), x.TraceOut)
	}
	if x.CoverOut != "" {
		data, err := x.Cover.JSON()
		if err == nil {
			err = os.WriteFile(x.CoverOut, data, 0o644)
		}
		if err != nil {
			return fmt.Errorf("cover-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cover-out: wrote coverage report to %s\n", x.CoverOut)
	}
	if x.CoverOn || x.CoverOut != "" {
		x.Cover.WriteText(os.Stderr)
	}
	if x.ProfileOut != "" {
		f, err := os.Create(x.ProfileOut)
		if err == nil {
			err = x.Profile.WritePprof(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			return fmt.Errorf("profile-out: %w", err)
		}
		fmt.Fprintf(os.Stderr, "profile-out: wrote pprof profile to %s (go tool pprof -top %s)\n",
			x.ProfileOut, x.ProfileOut)
	}
	if x.ProfileJSON != "" {
		data, err := x.Profile.JSON()
		if err == nil {
			err = os.WriteFile(x.ProfileJSON, data, 0o644)
		}
		if err != nil {
			return fmt.Errorf("profile-json: %w", err)
		}
		fmt.Fprintf(os.Stderr, "profile-json: wrote profile report to %s\n", x.ProfileJSON)
	}
	if x.Profile != nil {
		x.Profile.WriteText(os.Stderr)
	}
	if x.LedgerDir == "" {
		return nil
	}
	return x.appendLedger(record)
}

// appendLedger appends the run's record to the ledger in LedgerDir and,
// with -ledger-gate, diffs it against the rolling median of the prior
// runs of the same configuration.
func (x *Instruments) appendLedger(record func(*cover.Report, *profile.Report) ledger.Record) error {
	led, err := ledger.Open(x.LedgerDir)
	if err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	defer led.Close()
	rec := record(x.Cover.Report(), x.Profile.Report())
	rec.WallNS += int64(x.LedgerSlowdown)
	rec.SolverNS += int64(x.LedgerSlowdown)
	history := led.Records()
	if err := led.Append(rec); err != nil {
		return fmt.Errorf("ledger: %w", err)
	}
	prior := 0
	for _, r := range history {
		if r.Digest == rec.Digest {
			prior++
		}
	}
	fmt.Fprintf(os.Stderr, "ledger: appended run %s (%d prior runs of this config) to %s\n",
		rec.Digest, prior, led.Path())
	if !x.LedgerGate {
		return nil
	}
	if regs := ledger.Gate(history, rec, ledger.GateOptions{}); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "ledger-gate: %s\n", r)
		}
		return ErrRegressed
	}
	fmt.Fprintf(os.Stderr, "ledger-gate: green (wall %v, solver %v vs %d-run baseline)\n",
		rec.Wall().Round(time.Microsecond), rec.Solver().Round(time.Microsecond), prior)
	return nil
}
