package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// runWorkload sets a workload up n times, timing each setup, measures the
// last state and closes it. Every earlier state is closed before the next
// setup starts, so each repetition pays the full cost. A failing setup
// releases what it acquired before returning its error.
func runWorkload[T any](n int, setup func() (T, error), closeFn func(T) error, measure func(T) (*outcome, error)) (*outcome, error) {
	var st T
	var times, cpus []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := closeFn(st); err != nil {
				return nil, fmt.Errorf("closing setup %d: %w", i, err)
			}
		}
		start, cpu := time.Now(), cpuSeconds()
		s, err := setup()
		times = append(times, time.Since(start).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		st = s
	}
	resetPeakRSS()
	out, err := measure(st)
	if cerr := closeFn(st); err == nil && cerr != nil {
		err = fmt.Errorf("closing: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	out.setup, out.setupCPU = times, cpus
	return out, nil
}

// tailLadder is the set of percentiles a tail latency may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the percentile latency_tail_s reports for n samples:
// the workload's declared percentile when at least ten samples lie beyond
// it, else the highest rung of tailLadder that has ten beyond it. The
// declared value keeps runs of one workload comparable when a faster commit
// completes more operations; p50 is the floor when fewer than twenty
// samples exist.
func tailPercentile(declared float64, n int) float64 {
	beyond := func(p float64) bool { return float64(n)*(1-p/100) >= 10 }
	if beyond(declared) {
		return declared
	}
	for _, p := range tailLadder {
		if p < declared && beyond(p) {
			return p
		}
	}
	return 50
}

// cpuSeconds is the CPU time every thread of the process has used. Unlike
// wall time it leaves out time the hypervisor stole from the VM's CPUs,
// which on a shared host moves wall-clock medians by tens of percent from
// one minute to the next.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS restarts the kernel's peak-RSS count (VmHWM) at the current
// resident set, so peakRSSMB reports the measured loop's peak rather than
// garbage the repeated setups left behind. Where the kernel refuses, the
// peak stays process-wide.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total reservation where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// allocMark is a point-in-time reading of the Go runtime's allocation and
// GC counters; the difference of two marks gives per-op allocation.
type allocMark struct {
	totalAlloc uint64
	numGC      uint32
}

func markAlloc() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC}
}

// perOp returns the MB allocated and GC cycles run per op since m.
func (m allocMark) perOp(ops int) (mb, gcs float64) {
	if ops < 1 {
		return 0, 0
	}
	now := markAlloc()
	return float64(now.totalAlloc-m.totalAlloc) / (1 << 20) / float64(ops),
		float64(now.numGC-m.numGC) / float64(ops)
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix mixes a seed into a well-spread 64-bit value; the benchmark
// derives every input seed from the workload seed through it.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
