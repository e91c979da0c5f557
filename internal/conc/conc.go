// Package conc implements the ADL-generated concrete emulator. It drives
// the rtl concrete evaluator over a flat memory image and serves two
// roles: a reference interpreter for the command-line tools, and the
// differential-testing oracle for the symbolic execution engine (both are
// generated from the same description, so any semantic divergence is a
// bug in one of the evaluators, not in the description).
package conc

import (
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/adl"
	"repro/internal/bv"
	"repro/internal/cover"
	"repro/internal/decoder"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/prog"
	"repro/internal/rtl"
)

// StopKind tells why Run returned.
type StopKind int

// Stop reasons.
const (
	StopHalt   StopKind = iota // the program executed halt()
	StopExit                   // the program issued the exit trap
	StopFault                  // an error() in the semantics fired
	StopSteps                  // the step budget ran out
	StopDecode                 // undecodable instruction bytes
	StopPanic                  // panic recovered at the per-step fault boundary
)

func (k StopKind) String() string {
	switch k {
	case StopHalt:
		return "halt"
	case StopExit:
		return "exit"
	case StopFault:
		return "fault"
	case StopSteps:
		return "step limit"
	case StopDecode:
		return "decode error"
	case StopPanic:
		return "panic"
	}
	return "unknown"
}

// Stop describes the end of a run.
type Stop struct {
	Kind  StopKind
	PC    uint64 // address of the instruction that stopped the run
	Fault string // fault message for StopFault; panic value for StopPanic
	Err   error  // decode error for StopDecode

	// Layer and Stack are set for StopPanic: the fault layer the panic
	// was attributed to ("conc", "decode", "translate") and the
	// truncated runtime stack at the recovery point (docs/robustness.md).
	Layer string
	Stack string
}

func (s Stop) String() string {
	switch s.Kind {
	case StopFault:
		return fmt.Sprintf("fault at %#x: %s", s.PC, s.Fault)
	case StopDecode:
		return fmt.Sprintf("decode error at %#x: %v", s.PC, s.Err)
	case StopPanic:
		return fmt.Sprintf("panic at %#x [%s]: %s", s.PC, s.Layer, s.Fault)
	default:
		return fmt.Sprintf("%v at %#x", s.Kind, s.PC)
	}
}

// Trap codes of the shared system-call convention. The trap argument and
// return registers are named by the `sysarg`/`sysret` aliases in each
// architecture description.
const (
	TrapExit  = 0 // stop the program
	TrapRead  = 1 // sysret = next input byte, all-ones on EOF
	TrapWrite = 2 // append low byte of sysarg to the output
)

// Machine is a concrete machine instance.
type Machine struct {
	Arch *adl.Arch
	Dec  *decoder.Decoder

	regs []uint64
	mem  map[uint64]byte

	// Input is consumed by TrapRead; Output collects TrapWrite bytes.
	Input  []byte
	inPos  int
	Output []byte

	// TrapHandler, when non-nil, replaces the built-in convention.
	// Returning halt=true stops the run.
	TrapHandler func(m *Machine, code uint64) (halt bool, err error)

	Steps     int64 // cumulative executed instructions
	pcWritten bool

	// Metrics, when non-nil, feeds the registry-backed emulator
	// telemetry (internal/obs); nil disables it.
	Metrics *Metrics

	// Inject, when non-nil, arms the deterministic fault-injection
	// harness at the emulator's instrumented sites (the per-step
	// boundary; wire Dec.Inject too for the decode site). Nil-safe.
	Inject *faultinject.Injector

	// Prof, when non-nil, attributes executed instructions to guest PCs
	// in an exploration profile shard (internal/profile). The emulator
	// is single-goroutine, so one shard suffices; the owner folds it
	// into its Profiler when the run ends. Nil disables (nil-safe).
	Prof *profile.Shard

	// Cov, when non-nil, records conc-layer semantic coverage:
	// instructions executed, branch outcomes (from the pc-written flag),
	// and control events. Set through SetCover so the decoder's
	// decode-layer hook is attached in the same motion. Nil disables.
	Cov *cover.ArchCov

	// NoCompile disables the semantics compiler and superblock caching
	// (ablation): every step re-fetches and re-decodes its instruction
	// and interprets the RTL AST (docs/compile.md).
	NoCompile bool

	// CompileStats counts compiled units, superblocks and cache flushes
	// for this machine (the registry metrics mirror it).
	CompileStats CompileStats

	code     *codeCache  // per-address compiled units and superblocks
	scratch  rtl.Scratch // reusable locals buffer
	fetchBuf []byte      // fetch's reused MaxInsnBytes window
	curPC    uint64      // instruction under execution (panic attribution in superblocks)

	sysArg *adl.Reg
	sysRet *adl.Reg
}

// Metrics is the concrete emulator's registry instrument set.
type Metrics struct {
	Steps      *obs.Counter   // conc_steps_total
	RunSeconds *obs.Histogram // conc_run_seconds
	Faults     *obs.Counter   // fault_paths_total{layer="conc"}

	// Semantics-compiler series (docs/compile.md).
	CompileUnits     *obs.Counter   // compile_units_total{layer="conc"}
	SuperblockBuilds *obs.Counter   // superblock_builds_total{layer="conc"}
	SuperblockHits   *obs.Counter   // superblock_hits_total{layer="conc"}
	SuperblockInsns  *obs.Counter   // superblock_insns_total{layer="conc"}
	SuperblockLen    *obs.Histogram // superblock_len{layer="conc"}
}

// NewMetrics resolves the emulator metric set against a registry;
// returns nil (telemetry off) for a nil registry.
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Steps:            r.Counter("conc_steps_total", "Instructions executed by the concrete emulator"),
		RunSeconds:       r.Histogram("conc_run_seconds", "Concrete emulator Run latency", obs.TimeBuckets),
		Faults:           r.Counter(`fault_paths_total{layer="conc"}`, "Paths or runs ended by a recovered panic, by fault layer"),
		CompileUnits:     r.Counter(`compile_units_total{layer="conc"}`, "Instructions compiled to closure chains"),
		SuperblockBuilds: r.Counter(`superblock_builds_total{layer="conc"}`, "Superblocks constructed"),
		SuperblockHits:   r.Counter(`superblock_hits_total{layer="conc"}`, "Superblock executions"),
		SuperblockInsns:  r.Counter(`superblock_insns_total{layer="conc"}`, "Instructions executed inside superblocks"),
		SuperblockLen:    r.Histogram(`superblock_len{layer="conc"}`, "Superblock chain length at build time", obs.SuperblockLenBuckets),
	}
}

// NewMachine builds a machine with empty memory and zeroed registers.
func NewMachine(a *adl.Arch) *Machine {
	return &Machine{
		Arch:   a,
		Dec:    decoder.New(a),
		regs:   make([]uint64, len(a.Regs)),
		mem:    make(map[uint64]byte),
		sysArg: a.Reg("sysarg"),
		sysRet: a.Reg("sysret"),
	}
}

// SetCover attaches a semantic-coverage binding to the machine and its
// decoder. Nil detaches both.
func (m *Machine) SetCover(v *cover.ArchCov) {
	m.Cov = v
	m.Dec.Cov = v
}

// LoadProgram copies the image into memory and sets pc to the entry point.
func (m *Machine) LoadProgram(p *prog.Program) {
	for _, s := range p.Segments {
		for i, b := range s.Data {
			m.mem[s.Addr+uint64(i)] = b
		}
	}
	m.flushCode() // the new image invalidates previously compiled code
	m.WriteReg(m.Arch.PC, p.Entry)
	m.pcWritten = false
}

// ReadReg implements rtl.ConcState.
func (m *Machine) ReadReg(r *adl.Reg) uint64 {
	if r.Zero {
		return 0
	}
	return m.regs[r.Num]
}

// WriteReg implements rtl.ConcState.
func (m *Machine) WriteReg(r *adl.Reg, v uint64) {
	if r.Zero {
		return // hardwired zero register: writes are discarded
	}
	m.regs[r.Num] = bv.Trunc(v, r.Width)
	if r == m.Arch.PC {
		m.pcWritten = true
	}
}

// Load implements rtl.ConcState: unmapped cells read as zero.
func (m *Machine) Load(addr uint64, cells uint) uint64 {
	var v uint64
	if m.Arch.Endian == adl.Little {
		for i := int(cells) - 1; i >= 0; i-- {
			v = v<<8 | uint64(m.mem[m.trunc(addr+uint64(i))])
		}
	} else {
		for i := uint(0); i < cells; i++ {
			v = v<<8 | uint64(m.mem[m.trunc(addr+uint64(i))])
		}
	}
	return v
}

// Store implements rtl.ConcState.
func (m *Machine) Store(addr uint64, cells uint, val uint64) {
	m.noteStore(addr, cells) // self-modification guard for compiled code
	if m.Arch.Endian == adl.Little {
		for i := uint(0); i < cells; i++ {
			m.mem[m.trunc(addr+uint64(i))] = byte(val >> (8 * i))
		}
	} else {
		for i := uint(0); i < cells; i++ {
			m.mem[m.trunc(addr+uint64(i))] = byte(val >> (8 * (cells - 1 - i)))
		}
	}
}

func (m *Machine) trunc(a uint64) uint64 { return bv.Trunc(a, m.Arch.Bits) }

// PC returns the current program counter.
func (m *Machine) PC() uint64 { return m.ReadReg(m.Arch.PC) }

// Mem reads one byte of memory (for tests and tools).
func (m *Machine) Mem(addr uint64) byte { return m.mem[m.trunc(addr)] }

// RegSnapshot returns a copy of the register file indexed by Reg.Num, for
// differential comparison against another execution of the same program.
func (m *Machine) RegSnapshot() []uint64 {
	return append([]uint64(nil), m.regs...)
}

// MemSnapshot returns a copy of every mapped memory byte (program image
// plus stores). Unmapped addresses read as zero and are absent.
func (m *Machine) MemSnapshot() map[uint64]byte {
	out := make(map[uint64]byte, len(m.mem))
	for a, b := range m.mem {
		out[a] = b
	}
	return out
}

// Step decodes and executes one instruction; done is non-nil when the run
// should stop. It is the emulator's per-step fault boundary: any panic
// underneath — decoder, concrete evaluator, a hostile description, an
// injected fault — stops this run gracefully with StopPanic instead of
// crashing the process (docs/robustness.md).
func (m *Machine) Step() (done *Stop) {
	pc := m.PC()
	defer func() {
		if r := recover(); r != nil {
			done = m.recoverStop(pc, r)
		}
	}()
	return m.step(pc)
}

// step fires the per-step injection site, then fetches and executes the
// unit at pc: the single-step body shared by Step and Run.
func (m *Machine) step(pc uint64) *Stop {
	m.Inject.Fire(faultinject.SiteConcStep)
	u, stop := m.unitAt(pc)
	if stop != nil {
		return stop
	}
	return m.execUnit(pc, &u)
}

// recoverStop converts a panic recovered at the step boundary into a
// StopPanic outcome, attributing injected faults to their site and
// typed rtl errors to the translate layer.
func (m *Machine) recoverStop(pc uint64, r any) *Stop {
	layer := "conc"
	if f, ok := faultinject.Observe(r); ok {
		layer = f.Site.String()
	} else if _, ok := r.(*rtl.UnsupportedError); ok {
		layer = "translate"
	}
	if m.Metrics != nil {
		m.Metrics.Faults.Inc()
	}
	stack := debug.Stack()
	if len(stack) > 4096 {
		stack = stack[:4096]
	}
	return &Stop{Kind: StopPanic, PC: pc, Fault: fmt.Sprint(r), Layer: layer, Stack: string(stack)}
}

// fetch returns the MaxInsnBytes window at pc in a buffer the machine
// reuses: it is valid until the next fetch.
func (m *Machine) fetch(pc uint64) []byte {
	if m.fetchBuf == nil {
		m.fetchBuf = make([]byte, m.Arch.MaxInsnBytes())
	}
	for i := range m.fetchBuf {
		m.fetchBuf[i] = m.mem[m.trunc(pc+uint64(i))]
	}
	return m.fetchBuf
}

func (m *Machine) trap(code uint64) (halt bool, err error) {
	if m.TrapHandler != nil {
		return m.TrapHandler(m, code)
	}
	switch code {
	case TrapExit:
		return true, nil
	case TrapRead:
		if m.sysRet == nil {
			return false, fmt.Errorf("trap read: architecture %s has no sysret alias", m.Arch.Name)
		}
		if m.inPos < len(m.Input) {
			m.WriteReg(m.sysRet, uint64(m.Input[m.inPos]))
			m.inPos++
		} else {
			m.WriteReg(m.sysRet, bv.Mask(m.sysRet.Width))
		}
		return false, nil
	case TrapWrite:
		if m.sysArg == nil {
			return false, fmt.Errorf("trap write: architecture %s has no sysarg alias", m.Arch.Name)
		}
		m.Output = append(m.Output, byte(m.ReadReg(m.sysArg)))
		return false, nil
	}
	return false, fmt.Errorf("unknown trap code %d", code)
}

// Run executes until a stop condition or the step budget is exhausted.
// It advances by superblocks (straightline runs execute back-to-back
// with no per-instruction dispatch), falling back to single steps at
// branches and control events, and under NoCompile everywhere. One
// recover boundary covers the whole loop — a recovered panic always
// ends the run, and hoisting the defer out of the per-chunk path
// matters on branchy code with short superblocks.
func (m *Machine) Run(maxSteps int64) (stop Stop) {
	start := m.Steps
	if m.Metrics != nil {
		t0 := time.Now()
		defer func() {
			m.Metrics.Steps.Add(m.Steps - start)
			m.Metrics.RunSeconds.ObserveSince(t0)
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			stop = *m.recoverStop(m.curPC, r)
		}
	}()
	for {
		budget := maxSteps - (m.Steps - start)
		if budget <= 0 {
			return Stop{Kind: StopSteps, PC: m.PC()}
		}
		if s := m.runChunk(budget); s != nil {
			return *s
		}
	}
}
