package sim

import (
	"fmt"
	"testing"
)

// Cutting a run into RunUntil segments must never change delivery order:
// tests and the pool's audits stop the engine every simulated millisecond,
// and each segment end clamps the clock to the horizon and stops idle
// coroutines. The unit tests pin that for hand-picked horizons; the fuzzer
// searches for programs where it is not true, by running a random little
// concurrent program once under a single Run and once in fuzzed-length
// segments and demanding byte-identical execution logs.

// progOp is one instruction of a fuzzed proc: sleep, yield, fire, wait, or
// wait-with-timeout over a small set of shared signals.
type progOp struct {
	kind int // 0 sleep, 1 yield, 2 fire, 3 wait, 4 wait-timeout
	arg  int
}

// decodeProgram turns fuzz bytes into a RunUntil segment length, between
// ¼ µs and 16 µs, and up to 16 procs of up to 8 ops each. Decoding never
// fails: short input just means a short program.
func decodeProgram(data []byte) (segment Duration, procs [][]progOp) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := int(data[0])
		data = data[1:]
		return b, true
	}
	b, _ := next()
	segment = Duration(1+b%64) * Microsecond / 4
	b, _ = next()
	nprocs := 1 + b%16
	for i := 0; i < nprocs; i++ {
		b, ok := next()
		if !ok {
			break
		}
		nops := b % 9
		var ops []progOp
		for k := 0; k < nops; k++ {
			b, ok := next()
			if !ok {
				break
			}
			ops = append(ops, progOp{kind: b % 5, arg: b / 5})
		}
		procs = append(procs, ops)
	}
	return segment, procs
}

// progEvent records one completed op: which proc, which op, and the
// simulated instant it finished at.
type progEvent struct {
	proc, op int
	at       Time
}

// runProgram executes the program and returns the completion log. A zero
// segment runs it with one Run; otherwise RunUntil advances the horizon one
// segment at a time until every live process is blocked. Procs parked
// forever on a never-fired signal simply never log their wait — the same
// either way.
func runProgram(segment Duration, procs [][]progOp) []progEvent {
	env := NewEnv()
	defer env.Close()
	var sigs [4]*Signal
	for i := range sigs {
		sigs[i] = NewSignal(env)
	}
	var log []progEvent
	for pi, ops := range procs {
		pi, ops := pi, ops
		body := func(p *Proc) {
			for oi, op := range ops {
				switch op.kind {
				case 0:
					p.Sleep(Duration(op.arg%50) * Microsecond)
				case 1:
					p.Yield()
				case 2:
					sigs[op.arg%4].Fire()
				case 3:
					sigs[op.arg%4].Wait(p)
				case 4:
					_ = sigs[op.arg%4].WaitTimeout(p, Duration(1+op.arg%20)*Microsecond)
				}
				log = append(log, progEvent{proc: pi, op: oi, at: p.Now()})
			}
		}
		env.Spawn(fmt.Sprintf("p%d", pi), body)
	}
	if segment == 0 {
		env.Run()
		return log
	}
	for k := 1; env.Live() != len(env.Blocked()); k++ {
		env.RunUntil(Time(0).Add(Duration(k) * segment))
	}
	return log
}

func FuzzSegmentedRun(f *testing.F) {
	// Seeds: a sleeper/firer mix, a wait-heavy program, a same-instant
	// pileup, and a long segment over short timeouts.
	f.Add([]byte{3, 7, 4, 0, 12, 10, 17, 3, 5, 22, 9, 8, 15, 4, 2, 60, 61, 62})
	f.Add([]byte{7, 15, 8, 3, 3, 3, 3, 2, 2, 2, 2})
	f.Add([]byte{1, 4, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{255, 1, 8, 4, 19, 24, 4, 19, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		segment, procs := decodeProgram(data)
		got := runProgram(segment, procs)
		want := runProgram(0, procs)
		if len(got) != len(want) {
			t.Fatalf("%v segments completed %d ops, one Run completed %d", segment, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("delivery order diverges at step %d: %v segments ran proc %d op %d at %v, one Run ran proc %d op %d at %v",
					i, segment, got[i].proc, got[i].op, got[i].at, want[i].proc, want[i].op, want[i].at)
			}
		}
	})
}
