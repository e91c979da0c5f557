// Package faultinject is the deterministic fault-injection harness for
// the generated stacks (docs/robustness.md). An Injector is wired into
// the instrumented layers — decoder, RTL translator, symbolic step,
// concrete emulator step, solver and memory concretization — and, on a
// deterministic schedule derived from (seed, site, call number), makes
// a site misbehave in one of the ways the robustness layer must absorb:
// a panic, a solver budget exhaustion, a solver deadline expiry, or a
// malformed decode.
//
// The package follows the nil-receiver-safe instrument pattern of
// internal/obs and internal/cover: every hook on a nil *Injector is a
// no-op costing one pointer test, so production paths carry the hooks
// unconditionally.
//
// Accounting is exact by construction. Every fired fault increments a
// per-site/per-kind counter, and an injected panic carries a pointer
// back to its Injector, so whichever recover boundary catches it calls
// Observe and increments the matching surfaced counter — no plumbing
// from boundary back to injector is needed. The chaos mode of
// internal/difftest asserts fired == surfaced per site.
package faultinject

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Site identifies an instrumented layer. The String form is identical
// to the fault-layer names used by core.PathFault and the
// fault_paths_total metric labels.
type Site uint8

// Instrumented sites.
const (
	SiteDecode    Site = iota // decoder.Decode
	SiteTranslate             // symbolic translate, per instruction (core engine; rtl.SymEval.Exec when Inject is set)
	SiteSymStep               // core engine, per instruction step
	SiteConcStep              // conc.Machine.Step
	SiteSolver                // smt.Solver.Check (before the query cache)
	SiteMem                   // core memory concretization (Load/Store)
	SiteWAL                   // wal append/rewrite I/O (journal, checkpoints, ledger, cache)
	SiteStall                 // service job admission: stall the job until canceled
	numSites
)

func (s Site) String() string {
	switch s {
	case SiteDecode:
		return "decode"
	case SiteTranslate:
		return "translate"
	case SiteSymStep:
		return "sym"
	case SiteConcStep:
		return "conc"
	case SiteSolver:
		return "solver"
	case SiteMem:
		return "mem"
	case SiteWAL:
		return "wal"
	case SiteStall:
		return "stall"
	}
	return "unknown"
}

// Sites lists every instrumented site, for accounting loops.
func Sites() []Site {
	out := make([]Site, numSites)
	for i := range out {
		out[i] = Site(i)
	}
	return out
}

// Kind is the fault a firing injects.
type Kind uint8

// Fault kinds.
const (
	KindNone     Kind = iota // no fault this call
	KindPanic                // panic with a *Fault payload
	KindBudget               // solver conflict-budget exhaustion (smt.ErrBudget)
	KindDeadline             // solver wall-clock deadline expiry (smt.ErrDeadline)
	KindDecode               // malformed decode (ErrDecode)

	// Durable-log I/O faults (SiteWAL): a torn frame left on disk, a
	// silently flipped checksum, and a stolen writer lease. All three are
	// error kinds — the log must absorb them without a crash and account
	// them in its corruption/read-only counters.
	KindShortWrite
	KindCRCFlip
	KindLease

	// KindStall (SiteStall) makes a service job block making no progress
	// until canceled — the deliberate hang the stall watchdog must kill.
	KindStall
	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindPanic:
		return "panic"
	case KindBudget:
		return "budget"
	case KindDeadline:
		return "deadline"
	case KindDecode:
		return "decode"
	case KindShortWrite:
		return "short-write"
	case KindCRCFlip:
		return "crc-flip"
	case KindLease:
		return "lease"
	case KindStall:
		return "stall"
	}
	return "unknown"
}

// ErrDecode is the synthetic malformed-decode failure a KindDecode
// firing makes the decoder return. It must surface as a graceful
// decode-error outcome (StatusDecode / StopDecode), never as a crash.
var ErrDecode = errors.New("faultinject: injected malformed decode")

// Fault is the panic payload of a KindPanic firing. It carries a
// pointer back to the originating injector so any recover boundary can
// account the catch via Observe without knowing which injector armed
// the site.
type Fault struct {
	Site Site
	Seq  uint64 // the site's call number that fired

	inj *Injector
}

func (f *Fault) Error() string {
	return fmt.Sprintf("faultinject: injected panic at site %s (call %d)", f.Site, f.Seq)
}

// Observe accounts a recovered panic value: if it is an injected
// *Fault, the originating injector's surfaced counter for the site is
// incremented and the fault is returned. Call it exactly once per
// recover boundary, on the recovered value.
func Observe(r any) (*Fault, bool) {
	f, ok := r.(*Fault)
	if !ok {
		return nil, false
	}
	if f.inj != nil {
		f.inj.surfaced[f.Site].Add(1)
	}
	return f, true
}

// Injector deterministically injects faults at enabled sites. All
// methods are safe on a nil receiver (no-ops) and safe for concurrent
// use: the schedule is a pure function of (seed, site, per-site call
// number), so a serial run replays identically under the same seed,
// and parallel runs keep exact counts even though the call-number
// interleaving is schedule-dependent.
type Injector struct {
	seed   int64
	period uint64 // average calls between firings per enabled site

	kinds    [numSites][]Kind
	calls    [numSites]atomic.Uint64
	fired    [numSites][numKinds]atomic.Int64
	surfaced [numSites]atomic.Int64
	total    atomic.Int64 // all fired faults, every site and kind
}

// New returns an injector firing roughly once every period calls at
// each enabled site (period 0 disables firing; sites still count
// calls). Enable sites with Enable or EnableAll.
func New(seed int64, period uint64) *Injector {
	return &Injector{seed: seed, period: period}
}

// Enable arms a site with the given fault kinds (appending to any
// already enabled). A firing picks one of the enabled kinds
// deterministically.
func (in *Injector) Enable(site Site, kinds ...Kind) *Injector {
	if in == nil {
		return nil
	}
	in.kinds[site] = append(in.kinds[site], kinds...)
	return in
}

// EnableAll arms every site with its full fault-kind set: panics
// everywhere, malformed decodes at the decode site, budget and
// deadline expiry at the solver site, and the three durable-log I/O
// faults at the wal site. This is the chaos-mode configuration of the
// difftest oracle. SiteStall is deliberately left unarmed: a stalled
// job never finishes on its own, so it only belongs in tests that run
// the watchdog.
func (in *Injector) EnableAll() *Injector {
	return in.
		Enable(SiteDecode, KindPanic, KindDecode).
		Enable(SiteTranslate, KindPanic).
		Enable(SiteSymStep, KindPanic).
		Enable(SiteConcStep, KindPanic).
		Enable(SiteSolver, KindPanic, KindBudget, KindDeadline).
		Enable(SiteMem, KindPanic).
		Enable(SiteWAL, KindShortWrite, KindCRCFlip, KindLease)
}

// mix is a splitmix64-style finalizer over the firing decision inputs.
func mix(seed uint64, site Site, n uint64) uint64 {
	z := seed ^ (uint64(site)+1)*0x9e3779b97f4a7c15 ^ n*0xbf58476d1ce4e5b9
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ z>>31
}

// Fire draws this call's fault decision for a site. It returns
// KindNone (no fault) or the kind the caller must realize: KindBudget,
// KindDeadline and KindDecode are returned for the site to translate
// into its native failure; KindPanic never returns — Fire panics with
// a *Fault payload, to be caught (and Observed) by the site's recover
// boundary. Nil-safe.
func (in *Injector) Fire(site Site) Kind {
	if in == nil || in.period == 0 {
		return KindNone
	}
	ks := in.kinds[site]
	if len(ks) == 0 {
		return KindNone
	}
	n := in.calls[site].Add(1)
	h := mix(uint64(in.seed), site, n)
	if h%in.period != 0 {
		return KindNone
	}
	k := ks[(h/in.period)%uint64(len(ks))]
	in.fired[site][k].Add(1)
	in.total.Add(1)
	if k == KindPanic {
		panic(&Fault{Site: site, Seq: n, inj: in})
	}
	return k
}

// Calls reports how many times a site has been consulted. Nil-safe.
func (in *Injector) Calls(site Site) uint64 {
	if in == nil {
		return 0
	}
	return in.calls[site].Load()
}

// Fired reports how many faults of a kind a site has injected. Nil-safe.
func (in *Injector) Fired(site Site, kind Kind) int64 {
	if in == nil {
		return 0
	}
	return in.fired[site][kind].Load()
}

// Surfaced reports how many injected panics from a site were caught by
// a recover boundary that called Observe. Nil-safe.
func (in *Injector) Surfaced(site Site) int64 {
	if in == nil {
		return 0
	}
	return in.surfaced[site].Load()
}

// TotalFired reports the number of faults injected so far across every
// site and kind. The difftest chaos mode snapshots it around each
// comparison: a delta means the comparison was perturbed by an
// injected fault and must be skipped, not reported as a divergence.
// Nil-safe.
func (in *Injector) TotalFired() int64 {
	if in == nil {
		return 0
	}
	return in.total.Load()
}

// FiredCounts returns the nonzero fired counters keyed "site/kind".
func (in *Injector) FiredCounts() map[string]int64 {
	if in == nil {
		return nil
	}
	out := map[string]int64{}
	for s := Site(0); s < numSites; s++ {
		for k := Kind(0); k < numKinds; k++ {
			if n := in.fired[s][k].Load(); n > 0 {
				out[s.String()+"/"+k.String()] = n
			}
		}
	}
	return out
}

// SurfacedCounts returns the nonzero surfaced-panic counters keyed by
// site.
func (in *Injector) SurfacedCounts() map[string]int64 {
	if in == nil {
		return nil
	}
	out := map[string]int64{}
	for s := Site(0); s < numSites; s++ {
		if n := in.surfaced[s].Load(); n > 0 {
			out[s.String()] = n
		}
	}
	return out
}
