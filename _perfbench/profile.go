package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file attributes a CPU profile to layers. runtime/pprof writes a
// gzipped profile.proto; the few fields needed here (samples, locations,
// functions, string table) are decoded by hand to keep the benchmark
// free of dependencies.

// A sample is one stack (leaf first) and the CPU time it was charged.
type sample struct {
	stack []string
	nanos int64
}

// parseProfile decodes a gzipped pprof CPU profile into samples.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []rawSample
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		// The last value is CPU nanoseconds (the first is the count).
		out = append(out, sample{stack: stack, nanos: int64(s.values[len(s.values)-1])})
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// appendPacked appends a repeated varint field, packed (data) or not.
func appendPacked(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// Buckets the runtime's own work is split into.
const (
	bucketSched   = "runtime.sched"
	bucketGC      = "runtime.gc"
	bucketRuntime = "runtime.other"
	bucketBench   = "bench"
	bucketOther   = "other"
)

// gcPrefixes name the collector's functions: background marking and
// sweeping, assists, and write-barrier flushes.
var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.scan", "runtime.greyobject", "runtime.sweep", "runtime.(*sweep", "runtime.(*mspan).sweep",
	"runtime.wbBuf", "runtime.(*mheap).reclaim", "runtime.(*scavenger",
}

// schedFuncs are the scheduler, channel and park paths a goroutine
// handoff runs through: what coroutine procs would remove.
var schedFuncs = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.gopark": true, "runtime.goparkunlock": true, "runtime.goready": true, "runtime.ready": true,
	"runtime.chansend": true, "runtime.chansend1": true, "runtime.chanrecv": true,
	"runtime.chanrecv1": true, "runtime.chanrecv2": true, "runtime.selectgo": true,
	"runtime.closechan": true, "runtime.mcall": true, "runtime.gogo": true, "runtime.goexit0": true,
	"runtime.goexit1": true, "runtime.newproc": true, "runtime.newproc1": true, "runtime.execute": true,
	"runtime.futex": true, "runtime.futexsleep": true, "runtime.futexwakeup": true,
	"runtime.notesleep": true, "runtime.notewakeup": true, "runtime.stopm": true,
	"runtime.startm": true, "runtime.wakep": true, "runtime.mstart": true, "runtime.mstart0": true,
	"runtime.mstart1": true, "runtime.casgstatus": true, "runtime.goschedImpl": true,
	"runtime.gosched_m": true, "runtime.goyield_m": true, "runtime.sysmon": true,
	"runtime.runqget": true, "runtime.runqput": true, "runtime.runqgrab": true,
	"runtime.runqsteal": true, "runtime.stealWork": true, "runtime.resetspinning": true,
	"runtime.gfget": true, "runtime.gfput": true, "runtime.netpoll": true, "runtime.send": true,
	"runtime.recv": true, "runtime.acquirep": true, "runtime.releasep": true,
}

// pkgOf returns the import path of a function symbol such as
// "repro/internal/sim.(*Env).Run" or "runtime.chanrecv".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation arguments may hold paths
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") ||
		strings.HasPrefix(pkg, "internal/runtime/")
}

// layerOfPkg names the layer a package belongs to, or "" for the
// runtime and other libraries.
func layerOfPkg(pkg string) string {
	if l, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		return l
	}
	if pkg == "main" || pkg == "repro/perfbench" { // the latter in the test binary
		return bucketBench
	}
	return ""
}

// attribute charges one stack to a bucket. Collector work goes to
// runtime.gc and scheduler/channel/park work to runtime.sched, wherever
// it was entered from. Anything else — a layer's own code, or runtime
// and library code it called (allocation, copying, math) — goes to the
// innermost layer on the stack.
func attribute(stack []string) string {
	var runtimeLeaf bool
	for i, fn := range stack {
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return bucketGC
			}
		}
		if i == 0 {
			runtimeLeaf = isRuntime(pkgOf(fn))
		}
	}
	for _, fn := range stack {
		if schedFuncs[fn] {
			return bucketSched
		}
	}
	for _, fn := range stack {
		if l := layerOfPkg(pkgOf(fn)); l != "" {
			return l
		}
	}
	if runtimeLeaf {
		return bucketRuntime
	}
	return bucketOther
}

// cpuShares buckets a profile and returns each bucket's share of the
// profiled CPU time.
func cpuShares(samples []sample) map[string]float64 {
	byBucket := map[string]int64{}
	var total int64
	for _, s := range samples {
		byBucket[attribute(s.stack)] += s.nanos
		total += s.nanos
	}
	shares := make(map[string]float64, len(byBucket))
	for b, n := range byBucket {
		shares[b] = float64(n) / float64(total)
	}
	return shares
}
