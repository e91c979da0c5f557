package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Costs are charged in CPU time (getrusage). A stolen tick is wall time
// the process did not run, so CPU time moves far less with hypervisor
// steal than wall time does; it still rises when neighbours slow the
// host (README.md, Noise). Wall time is a diagnostic of the traced run.

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// name.
const rusageThread = 1

func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(%d): %v", who, err)) // cannot fail for self or thread
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTime returns the CPU time (user + system) of the whole process so
// far, all threads included: GC workers and the in-process daemon count.
func cpuTime() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// threadCPUTime returns the CPU time of the calling OS thread; the
// caller must hold runtime.LockOSThread for deltas to mean anything.
func threadCPUTime() time.Duration { return rusageCPU(rusageThread) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

func parseVmHWM(f io.Reader) (float64, error) {
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// hostTicks is the machine-wide aggregate CPU line of /proc/stat.
type hostTicks struct{ steal, total uint64 }

func readHostTicks() (hostTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	return parseHostTicks(string(b))
}

// parseHostTicks reads "cpu user nice system idle iowait irq softirq
// steal guest guest_nice"; guest time is already inside user, so only
// the first eight columns add up to the total.
func parseHostTicks(stat string) (hostTicks, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	var t hostTicks
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostTicks{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// stealShare is the share of machine CPU time stolen by the hypervisor
// between two readings.
func stealShare(a, b hostTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// window brackets a measured phase: process CPU, wall clock, host
// steal and the Go runtime's GC counters at its start.
type window struct {
	cpu  time.Duration
	wall time.Time
	host hostTicks
	rt   []float64
}

func openWindow() (window, error) {
	h, err := readHostTicks()
	return window{cpu: cpuTime(), wall: time.Now(), host: h, rt: readRT()}, err
}

// close fills the phase's process CPU time, wall time, steal share and
// GC CPU time and cycles.
func (w window) close(ph *phase) error {
	ph.cpu, ph.wall = cpuTime()-w.cpu, time.Since(w.wall)
	rt := readRT()
	ph.gcCPU, ph.numGC = rt[rtGCCPU]-w.rt[rtGCCPU], rt[rtGCCycles]-w.rt[rtGCCycles]
	h, err := readHostTicks()
	ph.steal = stealShare(w.host, h)
	return err
}
