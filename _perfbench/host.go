package main

import (
	"bytes"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"syscall"
	"time"
)

// usage is a snapshot of the process's own resource counters.
type usage struct {
	cpu        time.Duration // user + system
	involCtxSw int64
	rt         []metrics.Sample
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func snapshot() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		involCtxSw: ru.Nivcsw,
		rt:         make([]metrics.Sample, len(runtimeMetrics)),
	}
	for i, name := range runtimeMetrics {
		u.rt[i].Name = name
	}
	metrics.Read(u.rt)
	return u
}

// peakRSSKiB is the process's resident-set high-water mark. Linux carries
// ru_maxrss across exec, so a process started by vfork from a large parent
// reports the parent's size; VmHWM in /proc/self/status belongs to this
// program's own address space. ru_maxrss is the fallback.
func peakRSSKiB() int64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return ru.Maxrss
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			kib, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 10, 64)
			if err == nil {
				return kib
			}
		}
	}
	return ru.Maxrss
}

func (u usage) uint(i int) uint64 {
	if u.rt[i].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return u.rt[i].Value.Uint64()
}

func (u usage) allocBytes() uint64   { return u.uint(0) }
func (u usage) allocObjects() uint64 { return u.uint(1) }
func (u usage) gcCycles() uint64     { return u.uint(2) }

// schedLatency returns the q-quantile of goroutine run-queue wait (time
// runnable before running) between two snapshots, in seconds: the upper
// edge of the histogram bucket holding it.
func schedLatency(before, after usage, q float64) float64 {
	const i = 3
	if after.rt[i].Value.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	h := after.rt[i].Value.Float64Histogram()
	var h0 *metrics.Float64Histogram
	if before.rt[i].Value.Kind() == metrics.KindFloat64Histogram {
		h0 = before.rt[i].Value.Float64Histogram()
	}
	counts := make([]uint64, len(h.Counts))
	var total uint64
	for j, c := range h.Counts {
		if h0 != nil && j < len(h0.Counts) {
			c -= h0.Counts[j]
		}
		counts[j] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for j, c := range counts {
		seen += c
		if seen >= rank {
			if hi := h.Buckets[j+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return h.Buckets[j]
		}
	}
	return 0
}
