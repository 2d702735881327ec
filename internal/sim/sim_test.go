package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	env := NewEnv()
	if env.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", env.Now())
	}
	if got := env.Run(); got != 0 {
		t.Fatalf("Run() on empty env = %v, want 0", got)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var woke Time
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		woke = p.Now()
	})
	end := env.Run()
	if want := Time(5e-3); woke != want {
		t.Errorf("woke at %v, want %v", woke, want)
	}
	if end != woke {
		t.Errorf("Run() = %v, want %v", end, woke)
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	env := NewEnv()
	env.Spawn("p", func(p *Proc) {
		p.Sleep(-1)
		if p.Now() != 0 {
			t.Errorf("negative sleep advanced clock to %v", p.Now())
		}
	})
	env.Run()
}

// A NaN wake-up time would silently break the queue's (time, seq) order for
// every other pending event, so the engine refuses it outright.
func TestSleepNaNPanics(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	var got any
	env.Spawn("p", func(p *Proc) {
		defer func() { got = recover() }()
		p.Sleep(Duration(math.NaN()))
	})
	env.Spawn("bystander", func(p *Proc) { p.Sleep(Microsecond) })
	if end := env.Run(); end != Time(0).Add(Microsecond) {
		t.Errorf("Run() = %v after the rejected sleep, want 1µs", end)
	}
	msg, ok := got.(string)
	if !ok || !strings.HasPrefix(msg, "sim:") {
		t.Fatalf("Sleep(NaN) recovered %v, want a sim: panic", got)
	}
}

func TestEventOrderingFIFOAtSameInstant(t *testing.T) {
	env := NewEnv()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			p.Sleep(1 * Microsecond)
			order = append(order, name)
		})
	}
	env.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventsDeliveredInTimeOrder(t *testing.T) {
	env := NewEnv()
	var order []int
	delays := []Duration{30 * Microsecond, 10 * Microsecond, 20 * Microsecond}
	for i, d := range delays {
		i, d := i, d
		env.Spawn("p", func(p *Proc) {
			p.Sleep(d)
			order = append(order, i)
		})
	}
	env.Run()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSpawnAtDelaysStart(t *testing.T) {
	env := NewEnv()
	var started Time
	env.SpawnAt(7*Millisecond, "late", func(p *Proc) {
		started = p.Now()
	})
	env.Run()
	if want := Time(7e-3); started != want {
		t.Errorf("started at %v, want %v", started, want)
	}
}

func TestNestedSpawnFromProcess(t *testing.T) {
	env := NewEnv()
	var childTime Time
	env.Spawn("parent", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		p.Env().Spawn("child", func(c *Proc) {
			c.Sleep(2 * Millisecond)
			childTime = c.Now()
		})
	})
	env.Run()
	if want := Time(3e-3); childTime != want {
		t.Errorf("child finished at %v, want %v", childTime, want)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	env := NewEnv()
	var reached []Duration
	env.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(1 * Second)
			reached = append(reached, Duration(p.Now()))
		}
	})
	got := env.RunUntil(Time(3.5))
	if got != Time(3.5) {
		t.Fatalf("RunUntil = %v, want 3.5", got)
	}
	if len(reached) != 3 {
		t.Fatalf("process ran %d steps before horizon, want 3", len(reached))
	}
	// Resume to completion.
	end := env.Run()
	if end != Time(10) || len(reached) != 10 {
		t.Fatalf("after resume: end=%v steps=%d, want 10s and 10", end, len(reached))
	}
}

func TestSignalFireReleasesAllWaitersInOrder(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var order []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		env.Spawn(name, func(p *Proc) {
			sig.Wait(p)
			order = append(order, name)
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		if sig.Waiters() != 3 {
			t.Errorf("Waiters() = %d, want 3", sig.Waiters())
		}
		sig.Fire()
	})
	env.Run()
	if len(order) != 3 || order[0] != "w1" || order[1] != "w2" || order[2] != "w3" {
		t.Fatalf("wake order = %v", order)
	}
	if sig.Waiters() != 0 {
		t.Errorf("Waiters() = %d after Fire, want 0", sig.Waiters())
	}
}

func TestSignalFireOne(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	released := 0
	for i := 0; i < 2; i++ {
		env.Spawn("w", func(p *Proc) {
			sig.Wait(p)
			released++
		})
	}
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Microsecond)
		if !sig.FireOne() {
			t.Error("FireOne() = false with waiters present")
		}
	})
	env.Run()
	if released != 1 {
		t.Fatalf("released = %d, want 1", released)
	}
	if got := env.Blocked(); len(got) != 1 {
		t.Fatalf("Blocked() = %v, want one blocked process", got)
	}
	env.Close()
}

func TestSignalFireOneEmpty(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	if sig.FireOne() {
		t.Fatal("FireOne() = true with no waiters")
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var err error
	var at Time
	env.Spawn("p", func(p *Proc) {
		err = sig.WaitTimeout(p, 2*Millisecond)
		at = p.Now()
	})
	env.Run()
	if err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if at != Time(2e-3) {
		t.Fatalf("woke at %v, want 2ms", at)
	}
	if sig.Waiters() != 0 {
		t.Fatalf("stale waiter left on signal after timeout")
	}
}

func TestWaitTimeoutSignalWins(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	var err error
	var at Time
	env.Spawn("p", func(p *Proc) {
		err = sig.WaitTimeout(p, 10*Millisecond)
		at = p.Now()
	})
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		sig.Fire()
	})
	env.Run()
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if at != Time(1e-3) {
		t.Fatalf("woke at %v, want 1ms", at)
	}
}

// A timer and a Fire landing at the same instant must wake the process
// exactly once and leave no stale wake-up that could corrupt a later park.
func TestWaitTimeoutSimultaneousFireAndTimer(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	wakes := 0
	var second Time
	env.Spawn("p", func(p *Proc) {
		_ = sig.WaitTimeout(p, 1*Millisecond)
		wakes++
		p.Sleep(5 * Millisecond) // a stale wake-up would cut this short
		second = p.Now()
	})
	env.Spawn("firer", func(p *Proc) {
		p.Sleep(1 * Millisecond) // same instant as the timeout
		sig.Fire()
	})
	env.Run()
	if wakes != 1 {
		t.Fatalf("process woke %d times, want 1", wakes)
	}
	if second != Time(6e-3) {
		t.Fatalf("second sleep ended at %v, want 6ms (stale wake-up leaked)", second)
	}
}

func TestResourceSerializesExclusiveUse(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	var spans [][2]Time
	for i := 0; i < 3; i++ {
		env.Spawn("worker", func(p *Proc) {
			res.Acquire(p)
			start := p.Now()
			p.Sleep(1 * Millisecond)
			spans = append(spans, [2]Time{start, p.Now()})
			res.Release()
		})
	}
	end := env.Run()
	if end != Time(3e-3) {
		t.Fatalf("end = %v, want 3ms (serialized)", end)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	for i := 1; i < len(spans); i++ {
		if spans[i][0] < spans[i-1][1] {
			t.Fatalf("overlapping exclusive spans: %v", spans)
		}
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 2)
	for i := 0; i < 4; i++ {
		env.Spawn("worker", func(p *Proc) {
			res.Acquire(p)
			p.Sleep(1 * Millisecond)
			res.Release()
		})
	}
	if end := env.Run(); end != Time(2e-3) {
		t.Fatalf("end = %v, want 2ms (two at a time)", end)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	if !res.TryAcquire() {
		t.Fatal("TryAcquire on free resource = false")
	}
	if res.TryAcquire() {
		t.Fatal("TryAcquire on full resource = true")
	}
	if res.InUse() != 1 || res.Capacity() != 1 {
		t.Fatalf("InUse=%d Capacity=%d", res.InUse(), res.Capacity())
	}
	res.Release()
	if res.InUse() != 0 {
		t.Fatalf("InUse after release = %d", res.InUse())
	}
}

func TestResourceReleasePanicsWhenFree(t *testing.T) {
	env := NewEnv()
	res := NewResource(env, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of free resource did not panic")
		}
	}()
	res.Release()
}

func TestNewResourceRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(env, 0) did not panic")
		}
	}()
	NewResource(NewEnv(), 0)
}

func TestWaitGroup(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		d := Duration(i) * Millisecond
		env.Spawn("worker", func(p *Proc) {
			p.Sleep(d)
			wg.Done()
		})
	}
	env.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	env.Run()
	if doneAt != Time(3e-3) {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
	if wg.Count() != 0 {
		t.Fatalf("Count = %d, want 0", wg.Count())
	}
}

func TestWaitGroupWaitOnZeroReturnsImmediately(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	ran := false
	env.Spawn("p", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	env.Run()
	if !ran {
		t.Fatal("Wait on zero WaitGroup blocked")
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	env := NewEnv()
	wg := NewWaitGroup(env)
	defer func() {
		if recover() == nil {
			t.Fatal("negative WaitGroup did not panic")
		}
	}()
	wg.Add(-1)
}

func TestBlockedReportsDeadlockedProcesses(t *testing.T) {
	env := NewEnv()
	sig := NewSignal(env)
	env.Spawn("stuck-b", func(p *Proc) { sig.Wait(p) })
	env.Spawn("stuck-a", func(p *Proc) { sig.Wait(p) })
	env.Run()
	got := env.Blocked()
	if len(got) != 2 || got[0] != "stuck-a" || got[1] != "stuck-b" {
		t.Fatalf("Blocked() = %v", got)
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Live() after Close = %d, want 0", env.Live())
	}
}

func TestCloseUnwindsTimerParkedProcesses(t *testing.T) {
	env := NewEnv()
	env.Spawn("long", func(p *Proc) {
		p.Sleep(1 * Minute)
		t.Error("process body continued after Close")
	})
	env.RunUntil(Time(0)) // deliver the start event only
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Live() = %d after Close, want 0", env.Live())
	}
}

// Close must unwind processes whose wake-ups are still pending — a
// near-term sleep, a sleep milliseconds out, and a start that was never
// delivered — without running any more model code.
func TestCloseUnwindsPendingWakeups(t *testing.T) {
	env := NewEnv()
	finished := 0
	env.Spawn("near", func(p *Proc) {
		p.Sleep(50 * Microsecond)
		finished++
	})
	env.Spawn("far", func(p *Proc) {
		p.Sleep(5 * Millisecond)
		finished++
	})
	// A start event, never delivered.
	env.SpawnAt(10*Millisecond, "unstarted", func(p *Proc) { finished++ })
	env.RunUntil(Time(0).Add(10 * Microsecond))
	if got := env.Live(); got != 3 {
		t.Fatalf("Live() = %d before Close, want 3 (two sleepers, one undelivered start)", got)
	}
	env.Close()
	if got := env.Live(); got != 0 {
		t.Errorf("Live() = %d after Close, want 0", got)
	}
	if finished != 0 {
		t.Errorf("%d aborted process bodies ran past their sleep", finished)
	}
}

// A horizon falling between two events 600ns apart must deliver the
// earlier one, clamp the clock exactly to the horizon, and leave the later
// one for the next run — including at a day-scale base time, where float64
// seconds keep far less sub-microsecond resolution than near zero.
func TestRunUntilHorizonBetweenCloseEvents(t *testing.T) {
	for _, base := range []Duration{0, 86400 * Second} {
		t.Run(fmt.Sprintf("base=%gs", float64(base)), func(t *testing.T) {
			env := NewEnv()
			defer env.Close()
			start := Time(0).Add(base)
			var wokeEarly, wokeLate Time
			env.SpawnAt(base, "early", func(p *Proc) {
				p.Sleep(200 * Nanosecond)
				wokeEarly = p.Now()
			})
			env.SpawnAt(base, "late", func(p *Proc) {
				p.Sleep(800 * Nanosecond)
				wokeLate = p.Now()
			})
			h := start.Add(500 * Nanosecond)
			if got := env.RunUntil(h); got != h {
				t.Fatalf("RunUntil = %v, want clock clamped to %v", got, h)
			}
			if want := start.Add(200 * Nanosecond); wokeEarly != want {
				t.Errorf("early woke at %v, want %v", wokeEarly, want)
			}
			if wokeLate != 0 {
				t.Errorf("late woke at %v, before the horizon", wokeLate)
			}
			env.Run()
			if want := start.Add(800 * Nanosecond); wokeLate != want {
				t.Errorf("late woke at %v, want %v", wokeLate, want)
			}
		})
	}
}

// Blocked must report exactly the signal-parked processes, sorted, while
// sleepers, near-term or milliseconds out, have pending wake-ups and so
// never count as blocked.
func TestBlockedSortedExcludesSleepers(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	env.Spawn("wait-c", func(p *Proc) { sig.Wait(p) })
	env.Spawn("wait-a", func(p *Proc) { sig.Wait(p) })
	env.Spawn("wait-b", func(p *Proc) { sig.Wait(p) })
	// One short sleeper and one long one, both outlasting the first run.
	env.Spawn("sleep-near", func(p *Proc) { p.Sleep(50 * Microsecond) })
	env.Spawn("sleep-far", func(p *Proc) { p.Sleep(5 * Millisecond) })

	env.RunUntil(Time(0).Add(10 * Microsecond))
	got := env.Blocked()
	want := []string{"wait-a", "wait-b", "wait-c"}
	if len(got) != len(want) {
		t.Fatalf("Blocked() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocked() = %v, want %v (sorted)", got, want)
		}
	}

	// Once the signal fires the waiters drain and nothing is blocked.
	env.Spawn("firer", func(p *Proc) { sig.Fire() })
	env.Run()
	if got := env.Blocked(); len(got) != 0 {
		t.Fatalf("Blocked() after drain = %v, want empty", got)
	}
	if env.Live() != 0 {
		t.Fatalf("Live() after drain = %d, want 0", env.Live())
	}
}

// Blocked's contract is "no pending wake-up": a process inside WaitTimeout
// still has its deadline queued, even when that deadline lies beyond the
// current RunUntil horizon, so it is not reported.
func TestBlockedExcludesPendingTimeout(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	env.Spawn("wt", func(p *Proc) { sig.WaitTimeout(p, 5*Millisecond) })
	env.Spawn("stuck", func(p *Proc) { sig.Wait(p) })

	env.RunUntil(Time(0).Add(10 * Microsecond))
	if got := env.Blocked(); len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("Blocked() within the deadline = %v, want [stuck]", got)
	}
	env.Run()
	if got := env.Blocked(); len(got) != 1 || got[0] != "stuck" {
		t.Fatalf("Blocked() after the deadline = %v, want [stuck]", got)
	}
	if env.Live() != 1 {
		t.Fatalf("Live() = %d, want 1", env.Live())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []Time {
		env := NewEnv()
		defer env.Close()
		rng := rand.New(rand.NewSource(seed))
		res := NewResource(env, 2)
		var finishes []Time
		for i := 0; i < 50; i++ {
			d := Duration(rng.Intn(1000)+1) * Microsecond
			start := Duration(rng.Intn(1000)) * Microsecond
			env.SpawnAt(start, "w", func(p *Proc) {
				res.Acquire(p)
				p.Sleep(d)
				res.Release()
				finishes = append(finishes, p.Now())
			})
		}
		env.Run()
		return finishes
	}
	a, b := run(42), run(42)
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("runs finished %d/%d processes, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{0, "0s"},
		{5 * Nanosecond, "5ns"},
		{12 * Microsecond, "12µs"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%g).String() = %q, want %q", float64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Time(1.5)
	if got := a.Add(500 * Millisecond); got != Time(2.0) {
		t.Errorf("Add = %v", got)
	}
	if got := Time(2.0).Sub(a); got != 500*Millisecond {
		t.Errorf("Sub = %v", got)
	}
}

// Property: for any set of sleep durations, Run ends at the maximum, and
// every process observes exactly its own duration.
func TestPropertySleepDurationsIndependent(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		env := NewEnv()
		defer env.Close()
		var maxD Duration
		ok := true
		for _, r := range raw {
			d := Duration(r) * Microsecond
			if d > maxD {
				maxD = d
			}
			env.Spawn("p", func(p *Proc) {
				p.Sleep(d)
				if p.Now() != Time(0).Add(d) {
					ok = false
				}
			})
		}
		end := env.Run()
		return ok && end == Time(0).Add(maxD)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a capacity-c resource with n unit-time jobs completes in
// ceil(n/c) time units.
func TestPropertyResourceMakespan(t *testing.T) {
	f := func(n, c uint8) bool {
		jobs := int(n%50) + 1
		cap := int(c%8) + 1
		env := NewEnv()
		defer env.Close()
		res := NewResource(env, cap)
		for i := 0; i < jobs; i++ {
			env.Spawn("w", func(p *Proc) {
				res.Acquire(p)
				p.Sleep(1 * Millisecond)
				res.Release()
			})
		}
		end := env.Run()
		want := Time(float64((jobs+cap-1)/cap) * 1e-3)
		diff := float64(end - want)
		return diff < 1e-12 && diff > -1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEventFreelistRecycles: after warm-up, the schedule→pop→deliver cycle
// of a steadily ticking process reuses recycled events instead of
// allocating — the hot-path property BenchmarkSimEngineEvents tracks. Each
// measured run is a one-microsecond RunUntil segment: one tick, resumed
// from the driver loop.
func TestEventFreelistRecycles(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(1 * Microsecond)
		}
	})
	horizon := Time(0)
	segment := func() {
		horizon = horizon.Add(1 * Microsecond)
		env.RunUntil(horizon)
	}
	for i := 0; i < 100; i++ { // warm-up: start event, freelist priming
		segment()
	}
	allocs := testing.AllocsPerRun(1000, segment)
	if allocs > 0 {
		t.Fatalf("steady-state RunUntil segment allocates %.1f objects/op, want 0", allocs)
	}
}

// TestProcessPanicSurfacesAtRun: a panic in a process body reaches Run's
// caller, where it can be recovered, instead of killing the program.
func TestProcessPanicSurfacesAtRun(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	env.Spawn("bystander", func(p *Proc) { p.Sleep(1 * Second) })
	env.Spawn("faulty", func(p *Proc) {
		p.Sleep(1 * Millisecond)
		panic("model bug")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		env.Run()
		return nil
	}()
	if got != "model bug" {
		t.Fatalf("recovered %v, want the process's panic value", got)
	}
}

// TestUnclosedEnvLeaksNoGoroutines: processes that run to completion give
// their coroutines back, so an Env that is never closed leaves nothing
// running once Run returns. The mid-run count proves coroGoroutines sees
// the coroutines at all, so the final equality cannot pass vacuously.
func TestUnclosedEnvLeaksNoGoroutines(t *testing.T) {
	before := coroGoroutines()
	env := NewEnv()
	for i := 0; i < 1000; i++ {
		env.SpawnAt(Duration(i%7)*Microsecond, "short", func(p *Proc) {
			p.Sleep(Duration(i%13) * Microsecond)
		})
	}
	env.RunUntil(Time(0).Add(5 * Microsecond))
	if mid := coroGoroutines(); mid <= before {
		t.Fatalf("coroutine goroutines: %d before, %d with processes asleep mid-run; the stack match is stale", before, mid)
	}
	env.Run()
	if env.Live() != 0 {
		t.Fatalf("Live() = %d after Run, want 0", env.Live())
	}
	if after := coroGoroutines(); after != before {
		t.Fatalf("goroutines: %d before, %d after Run without Close", before, after)
	}
}

// coroGoroutines counts the goroutines running a sim coroutine. Counting
// only those keeps the check immune to the test runner's own goroutines:
// the previous test's runner can still be exiting when this one starts,
// most often on a loaded host.
func coroGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "sim.(*coro).run(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestFreelistPreservesRacingWakeups: recycled events must not leak state
// into the timer-vs-signal race that cancelled events resolve.
func TestFreelistPreservesRacingWakeups(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	sig := NewSignal(env)
	var timedOut, fired int
	for i := 0; i < 50; i++ {
		env.Spawn("waiter", func(p *Proc) {
			for j := 0; j < 20; j++ {
				if err := sig.WaitTimeout(p, 2*Microsecond); err != nil {
					timedOut++
				} else {
					fired++
				}
			}
		})
	}
	env.Spawn("firer", func(p *Proc) {
		for j := 0; j < 10; j++ {
			p.Sleep(5 * Microsecond)
			sig.Fire()
		}
	})
	env.Run()
	if timedOut == 0 || fired == 0 {
		t.Fatalf("race did not exercise both outcomes: timeouts=%d fires=%d", timedOut, fired)
	}
	if got := timedOut + fired; got != 50*20 {
		t.Fatalf("waits completed = %d, want %d", got, 1000)
	}
}

// Stats counts each delivery once, by where it ran: a step process that
// heads the queue while a coroutine parks runs inline, as does the
// coroutine's own next wake-up, and only the loop's resumes switch.
func TestEnvStatsCounts(t *testing.T) {
	env := NewEnv()
	defer env.Close()
	calls := 0
	env.SpawnStep("stepper", func(p *Proc) bool {
		if calls++; calls == 3 {
			return false
		}
		p.ArmTimer(Microsecond)
		return true
	})
	env.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1500 * Nanosecond)
		p.Sleep(Microsecond)
	})
	env.Run()
	// The loop starts both; the stepper's wake-ups at 1 and 2 µs and the
	// sleeper's at 1.5 and 2.5 µs all run inside the sleeper's parks.
	want := Stats{Wakeups: 2, Inline: 4, Steps: 3, Switches: 1, Spawns: 2}
	if got := env.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = env.Stats() }); n != 0 {
		t.Fatalf("Stats() allocates %v times per call", n)
	}
}
