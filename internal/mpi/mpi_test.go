package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// zeroCost removes communication costs so logical behaviour can be tested
// with exact times.
func zeroCost() CostModel { return CostModel{} }

func runWorld(t *testing.T, size int, cost CostModel, fn func(r *Rank)) *sim.Env {
	t.Helper()
	env := sim.NewEnv()
	t.Cleanup(env.Close)
	w := NewWorld(env, size, cost)
	w.SpawnAll(fn)
	env.Run()
	if blocked := env.Blocked(); len(blocked) != 0 {
		t.Fatalf("deadlocked ranks: %v", blocked)
	}
	return env
}

func TestNewWorldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-size world accepted")
		}
	}()
	NewWorld(sim.NewEnv(), 0, zeroCost())
}

func TestSendRecvDeliversPayload(t *testing.T) {
	got := ""
	runWorld(t, 2, zeroCost(), func(r *Rank) {
		if r.Rank() == 0 {
			r.Send(1, 7, 5, "hello")
		} else {
			payload, n := r.Recv(0, 7)
			got = payload.(string)
			if n != 5 {
				t.Errorf("bytes = %d", n)
			}
		}
	})
	if got != "hello" {
		t.Fatalf("payload = %q", got)
	}
}

func TestRecvMatchesTagAndSource(t *testing.T) {
	var order []int
	runWorld(t, 3, zeroCost(), func(r *Rank) {
		switch r.Rank() {
		case 0:
			r.Send(2, 1, 0, 100)
		case 1:
			r.Send(2, 2, 0, 200)
		case 2:
			// Receive in the opposite order of arrival-likelihood: tag 2
			// from rank 1 first, then tag 1 from rank 0.
			v, _ := r.Recv(1, 2)
			order = append(order, v.(int))
			v, _ = r.Recv(0, 1)
			order = append(order, v.(int))
		}
	})
	if len(order) != 2 || order[0] != 200 || order[1] != 100 {
		t.Fatalf("order = %v", order)
	}
}

func TestSendChargesAlphaBeta(t *testing.T) {
	cost := CostModel{Alpha: 10 * sim.Microsecond, Beta: 1e9}
	var sendTime sim.Duration
	runWorld(t, 2, cost, func(r *Rank) {
		if r.Rank() == 0 {
			start := r.Proc().Now()
			r.Send(1, 0, 1_000_000, nil) // 10µs + 1ms
			sendTime = r.Proc().Now().Sub(start)
		} else {
			r.Recv(0, 0)
		}
	})
	want := 10*sim.Microsecond + 1*sim.Millisecond
	if math.Abs(float64(sendTime-want)) > 1e-12 {
		t.Fatalf("send cost = %v, want %v", sendTime, want)
	}
}

func TestSendrecvPairDoesNotDeadlock(t *testing.T) {
	runWorld(t, 2, IntraNode(), func(r *Rank) {
		partner := 1 - r.Rank()
		v, _ := r.Sendrecv(partner, 0, 8, r.Rank(), partner, 0)
		if v.(int) != partner {
			t.Errorf("rank %d received %v, want %d", r.Rank(), v, partner)
		}
	})
}

func TestBarrierSynchronizesRanks(t *testing.T) {
	var times []sim.Time
	runWorld(t, 4, zeroCost(), func(r *Rank) {
		r.Proc().Sleep(sim.Duration(r.Rank()) * sim.Millisecond)
		r.Barrier()
		times = append(times, r.Proc().Now())
	})
	if len(times) != 4 {
		t.Fatalf("times = %v", times)
	}
	for _, tm := range times {
		if tm != times[0] {
			t.Fatalf("ranks left barrier at different times: %v", times)
		}
		if tm != sim.Time(3e-3) {
			t.Fatalf("barrier released at %v, want 3ms (slowest rank)", tm)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	results := make([][]float64, 4)
	runWorld(t, 4, IntraNode(), func(r *Rank) {
		v := []float64{float64(r.Rank()), 1}
		results[r.Rank()] = r.Allreduce(v, OpSum)
	})
	for rank, got := range results {
		if got[0] != 6 || got[1] != 4 { // 0+1+2+3, 1×4
			t.Fatalf("rank %d allreduce = %v", rank, got)
		}
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	runWorld(t, 3, zeroCost(), func(r *Rank) {
		v := []float64{float64(r.Rank())}
		if got := r.Allreduce(v, OpMax)[0]; got != 2 {
			t.Errorf("max = %v", got)
		}
		if got := r.Allreduce([]float64{float64(r.Rank())}, OpMin)[0]; got != 0 {
			t.Errorf("min = %v", got)
		}
	})
}

func TestAllreduceScalar(t *testing.T) {
	runWorld(t, 5, zeroCost(), func(r *Rank) {
		if got := r.AllreduceScalar(2, OpSum); got != 10 {
			t.Errorf("scalar sum = %v", got)
		}
	})
}

func TestAllreduceRingCostScalesWithSize(t *testing.T) {
	// Ring allreduce of n bytes on P ranks: 2(P-1) steps of alpha + n/(P·beta).
	cost := CostModel{Alpha: 1 * sim.Microsecond, Beta: 1e9}
	elapsed := func(p int) sim.Duration {
		var d sim.Duration
		env := sim.NewEnv()
		defer env.Close()
		w := NewWorld(env, p, cost)
		w.SpawnAll(func(r *Rank) {
			v := make([]float64, 1000) // 8000 bytes
			start := r.Proc().Now()
			r.Allreduce(v, OpSum)
			d = r.Proc().Now().Sub(start)
		})
		env.Run()
		return d
	}
	if got := elapsed(1); got != 0 {
		t.Errorf("single-rank allreduce cost = %v, want 0", got)
	}
	got4 := elapsed(4)
	want4 := sim.Duration(6) * (1*sim.Microsecond + sim.Duration(2000.0/1e9))
	if math.Abs(float64(got4-want4)) > 1e-12 {
		t.Errorf("4-rank ring cost = %v, want %v", got4, want4)
	}
}

func TestBcast(t *testing.T) {
	results := make([][]float64, 3)
	runWorld(t, 3, IntraNode(), func(r *Rank) {
		var v []float64
		if r.Rank() == 1 {
			v = []float64{3.14, 2.72}
		}
		results[r.Rank()] = r.Bcast(v, 1)
	})
	for rank, got := range results {
		if len(got) != 2 || got[0] != 3.14 || got[1] != 2.72 {
			t.Fatalf("rank %d bcast = %v", rank, got)
		}
	}
}

func TestBcastReturnsIndependentCopies(t *testing.T) {
	results := make([][]float64, 2)
	runWorld(t, 2, zeroCost(), func(r *Rank) {
		var v []float64
		if r.Rank() == 0 {
			v = []float64{1}
		}
		results[r.Rank()] = r.Bcast(v, 0)
	})
	results[0][0] = 99
	if results[1][0] != 1 {
		t.Fatal("bcast results alias each other")
	}
}

func TestGather(t *testing.T) {
	var atRoot [][]float64
	runWorld(t, 3, IntraNode(), func(r *Rank) {
		res := r.Gather([]float64{float64(r.Rank() * 10)}, 0)
		if r.Rank() == 0 {
			atRoot = res
		} else if res != nil {
			t.Errorf("non-root rank %d got %v", r.Rank(), res)
		}
	})
	if len(atRoot) != 3 || atRoot[0][0] != 0 || atRoot[1][0] != 10 || atRoot[2][0] != 20 {
		t.Fatalf("gathered = %v", atRoot)
	}
}

func TestCollectiveKindMismatchPanics(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	w.Spawn(0, func(r *Rank) { r.Barrier() })
	w.Spawn(1, func(r *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("mismatched collective did not panic")
			}
		}()
		r.Allreduce([]float64{1}, OpSum)
	})
	env.Run()
}

func TestAllreduceLengthMismatchPanics(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	panicked := false
	w.Spawn(0, func(r *Rank) { r.Allreduce([]float64{1}, OpSum) })
	w.Spawn(1, func(r *Rank) {
		// Rank 1 arrives last, so the reduction (and its panic) runs here;
		// rank 0 stays parked and is unwound by the deferred env.Close.
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		r.Allreduce([]float64{1, 2}, OpSum)
	})
	env.Run()
	if !panicked {
		t.Fatal("length mismatch did not panic")
	}
}

func TestTrafficCounters(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	w.Spawn(0, func(r *Rank) {
		r.Send(1, 0, 100, nil)
		r.Send(1, 1, 200, nil)
	})
	w.Spawn(1, func(r *Rank) {
		r.Recv(0, 0)
		r.Recv(0, 1)
	})
	env.Run()
	if w.MessagesSent() != 2 || w.BytesSent() != 300 {
		t.Fatalf("messages=%d bytes=%d", w.MessagesSent(), w.BytesSent())
	}
}

// Delivered messages are recycled, and neither the freelist nor the
// inbox's spare capacity keeps a delivered payload reachable.
func TestRecvReleasesDeliveredPayloads(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	var got []int
	w.Spawn(0, func(r *Rank) {
		for tag := 0; tag < 3; tag++ {
			r.Send(1, tag, 8, []int{tag})
		}
		r.Barrier()
		r.Send(1, 9, 8, []int{9})
	})
	w.Spawn(1, func(r *Rank) {
		r.Barrier()
		// Out of arrival order, so a middle slot is vacated first.
		for _, tag := range []int{1, 0, 2} {
			v, _ := r.Recv(0, tag)
			got = append(got, v.([]int)[0])
		}
		v, _ := r.Recv(0, 9)
		got = append(got, v.([]int)[0])
	})
	env.Run()
	if len(got) != 4 || got[0] != 1 || got[1] != 0 || got[2] != 2 || got[3] != 9 {
		t.Fatalf("received %v, want [1 0 2 9]", got)
	}
	box := w.inbox[1]
	for i, m := range box[:cap(box)] {
		if m != nil {
			t.Errorf("inbox slot %d still holds a delivered message", i)
		}
	}
	// The fourth send reused a message the first receives released.
	if len(w.free) != 3 {
		t.Errorf("freelist holds %d messages, want 3", len(w.free))
	}
	for _, m := range w.free {
		if m.payload != nil {
			t.Errorf("recycled message still holds payload %v", m.payload)
		}
	}
}

func TestInvalidRanksPanic(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	w := NewWorld(env, 2, zeroCost())
	for _, tc := range []struct {
		name string
		fn   func(r *Rank)
	}{
		{"send", func(r *Rank) { r.Send(5, 0, 0, nil) }},
		{"bcast", func(r *Rank) { r.Bcast(nil, 5) }},
		{"gather", func(r *Rank) { r.Gather(nil, -1) }},
	} {
		name := tc.name
		fn := tc.fn
		w = NewWorld(env, 2, zeroCost())
		w.Spawn(0, func(r *Rank) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with invalid rank did not panic", name)
				}
			}()
			fn(r)
		})
		env.Run()
	}
	defer func() {
		if recover() == nil {
			t.Error("Spawn with invalid rank did not panic")
		}
	}()
	w.Spawn(7, func(r *Rank) {})
}

// Property: allreduce-sum of per-rank vectors equals the true element-wise
// sum for arbitrary sizes and world shapes.
func TestPropertyAllreduceSum(t *testing.T) {
	f := func(vals []float64, psize uint8) bool {
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		if len(vals) == 0 {
			vals = []float64{1}
		}
		if len(vals) > 32 {
			vals = vals[:32]
		}
		p := int(psize%4) + 1
		env := sim.NewEnv()
		defer env.Close()
		w := NewWorld(env, p, IntraNode())
		ok := true
		w.SpawnAll(func(r *Rank) {
			mine := make([]float64, len(vals))
			for i, v := range vals {
				mine[i] = v * float64(r.Rank()+1)
			}
			got := r.Allreduce(mine, OpSum)
			scale := float64(p*(p+1)) / 2 // sum of (rank+1)
			for i := range got {
				want := vals[i] * scale
				if math.Abs(got[i]-want) > 1e-9*(math.Abs(want)+1) {
					ok = false
				}
			}
		})
		env.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
