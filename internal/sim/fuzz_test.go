package sim

import (
	"fmt"
	"testing"
)

// Shards are spawn-time ownership keys only: the engine keeps every pending
// event in one (time, seq) heap, and the shard a process lives on must never
// affect delivery order. The unit tests pin that for hand-picked
// tie-breaks; the fuzzer searches for programs where it is not true, by
// running a random little concurrent program once on 1 shard and once on a
// fuzzed topology and demanding byte-identical execution logs.

// progOp is one instruction of a fuzzed proc: sleep, yield, fire, wait, or
// wait-with-timeout over a small set of shared signals.
type progOp struct {
	kind int // 0 sleep, 1 yield, 2 fire, 3 wait, 4 wait-timeout
	arg  int
}

// decodeProgram turns fuzz bytes into a shard count and up to 16 procs of
// up to 8 ops each. Decoding never fails: short input just means a short
// program.
func decodeProgram(data []byte) (shards int, procs [][]progOp) {
	next := func() (int, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := int(data[0])
		data = data[1:]
		return b, true
	}
	b, _ := next()
	shards = 1 + b%8
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
	return shards, procs
}

// progEvent records one completed op: which proc, which op, and the
// simulated instant it finished at.
type progEvent struct {
	proc, op int
	at       Time
}

// runProgram executes the program with proc i pinned to shard i%shards
// (shard 0 being the default domain) and returns the completion log. Procs
// parked forever on a never-fired signal simply never log their wait — the
// same on every topology.
func runProgram(shards int, procs [][]progOp) []progEvent {
	env := NewEnv()
	defer env.Close()
	var sigs [4]*Signal
	for i := range sigs {
		sigs[i] = NewSignal(env)
	}
	domains := make([]*Shard, shards-1)
	for i := range domains {
		domains[i] = env.NewShard()
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
		name := fmt.Sprintf("p%d", pi)
		if d := pi % shards; d == 0 {
			env.Spawn(name, body)
		} else {
			domains[d-1].Spawn(name, body)
		}
	}
	env.Run()
	return log
}

func FuzzShardedMergeOrder(f *testing.F) {
	// Seeds: a sleeper/firer mix, a wait-heavy program, a same-instant
	// pileup, and a topology wider than the proc count.
	f.Add([]byte{3, 7, 4, 0, 12, 10, 17, 3, 5, 22, 9, 8, 15, 4, 2, 60, 61, 62})
	f.Add([]byte{7, 15, 8, 3, 3, 3, 3, 2, 2, 2, 2})
	f.Add([]byte{1, 4, 2, 0, 0, 2, 0, 0})
	f.Add([]byte{255, 1, 8, 4, 19, 24, 4, 19, 24})
	f.Fuzz(func(t *testing.T, data []byte) {
		shards, procs := decodeProgram(data)
		got := runProgram(shards, procs)
		want := runProgram(1, procs)
		if len(got) != len(want) {
			t.Fatalf("%d shards completed %d ops, 1 shard completed %d", shards, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("delivery order diverges at step %d: %d shards ran proc %d op %d at %v, 1 shard ran proc %d op %d at %v",
					i, shards, got[i].proc, got[i].op, got[i].at, want[i].proc, want[i].op, want[i].at)
			}
		}
	})
}
