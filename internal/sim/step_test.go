package sim

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"
)

// A Proc is allocated per spawn, and pool sweeps spawn hundreds of
// thousands, so it must stay in the 96-byte size class.
func TestProcSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Proc{}); n > 96 {
		t.Fatalf("sizeof(Proc) = %d bytes, want <= 96", n)
	}
}

// stepScenario runs one contention scenario with its server written either
// as a coroutine body or as the equivalent step body, and returns the log
// of every observable action with its instant.
func stepScenario(asStep bool) []string {
	env := NewEnv()
	defer env.Close()
	arrive := NewSignal(env)
	res := NewResource(env, 1)
	var queue []Duration
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%.9f ", float64(env.Now()))+fmt.Sprintf(format, args...))
	}
	const items = 6

	env.Spawn("client", func(p *Proc) {
		for k := 0; k < items; k++ {
			queue = append(queue, Duration(k%3+1)*Microsecond)
			arrive.Fire()
			note("enqueue %d", k)
			p.Sleep(Duration(k%2) * Microsecond)
		}
	})
	env.Spawn("hog", func(p *Proc) {
		for k := 0; k < 4; k++ {
			res.Acquire(p)
			note("hog holds %d", k)
			p.Sleep(1500 * Nanosecond)
			res.Release()
			p.Sleep(500 * Nanosecond)
		}
	})
	if asStep {
		i, phase := 0, 0
		env.SpawnStep("server", func(p *Proc) bool {
			for {
				switch phase {
				case 0:
					if len(queue) <= i {
						arrive.Arm(p)
						return true
					}
					phase = 1
				case 1:
					if !res.AcquireOrArm(p) {
						return true
					}
					phase = 2
					p.ArmTimer(queue[i])
					return true
				case 2:
					note("served %d", i)
					res.Release()
					i++
					if i == items {
						return false
					}
					phase = 0
				}
			}
		})
	} else {
		env.Spawn("server", func(p *Proc) {
			for i := 0; i < items; i++ {
				for len(queue) <= i {
					arrive.Wait(p)
				}
				res.Acquire(p)
				p.Sleep(queue[i])
				note("served %d", i)
				res.Release()
			}
		})
	}
	end := env.Run()
	note("end live=%d blocked=%v at %.9f", env.Live(), env.Blocked(), float64(end))
	return log
}

// A step body wakes in exactly the (time, seq) slots of the coroutine body
// it replaces, so every observable action happens in the same order.
func TestStepProcessMatchesCoroutine(t *testing.T) {
	co, st := stepScenario(false), stepScenario(true)
	if strings.Join(co, "\n") != strings.Join(st, "\n") {
		t.Fatalf("step server diverges from coroutine server:\ncoroutine:\n%s\nstep:\n%s",
			strings.Join(co, "\n"), strings.Join(st, "\n"))
	}
	if last := co[len(co)-1]; !strings.Contains(last, "live=0 blocked=[]") {
		t.Fatalf("scenario did not drain: %s", last)
	}
}

// Close unwinds step processes parked on a Signal and on a Resource queue
// like any other parked process.
func TestCloseUnwindsStepProcesses(t *testing.T) {
	env := NewEnv()
	never := NewSignal(env)
	res := NewResource(env, 1)
	env.Spawn("holder", func(p *Proc) {
		res.Acquire(p)
		never.Wait(p)
	})
	env.SpawnStep("on-signal", func(p *Proc) bool {
		never.Arm(p)
		return true
	})
	env.SpawnStep("on-resource", func(p *Proc) bool {
		if res.AcquireOrArm(p) {
			t.Error("acquired a held resource")
			return false
		}
		return true
	})
	env.Run()
	if got := strings.Join(env.Blocked(), ","); got != "holder,on-resource,on-signal" {
		t.Fatalf("Blocked() = %s", got)
	}
	if env.Live() != 3 {
		t.Fatalf("Live() = %d, want 3", env.Live())
	}
	env.Close()
	if env.Live() != 0 {
		t.Fatalf("Live() after Close = %d, want 0", env.Live())
	}
	if got := env.Blocked(); len(got) != 0 {
		t.Fatalf("Blocked() after Close = %v, want empty", got)
	}
}

// A step body has no stack to park, so blocking or leaving the process in
// an impossible state panics with a sim: message at Run's caller.
func TestStepBodyMisusePanics(t *testing.T) {
	cases := map[string]func(sig *Signal) func(p *Proc) bool{
		"sleep": func(*Signal) func(p *Proc) bool {
			return func(p *Proc) bool { p.Sleep(Microsecond); return true }
		},
		"wait": func(sig *Signal) func(p *Proc) bool {
			return func(p *Proc) bool { sig.Wait(p); return true }
		},
		"nothing-armed": func(*Signal) func(p *Proc) bool {
			return func(p *Proc) bool { return true }
		},
		"ended-armed": func(*Signal) func(p *Proc) bool {
			return func(p *Proc) bool { p.ArmTimer(Microsecond); return false }
		},
		"armed-twice": func(sig *Signal) func(p *Proc) bool {
			return func(p *Proc) bool { sig.Arm(p); sig.Arm(p); return true }
		},
		"two-signals": func(sig *Signal) func(p *Proc) bool {
			other := NewSignal(sig.env)
			return func(p *Proc) bool { sig.Arm(p); other.Arm(p); return true }
		},
	}
	for _, name := range []string{"sleep", "wait", "nothing-armed", "ended-armed", "armed-twice", "two-signals"} {
		t.Run(name, func(t *testing.T) {
			env := NewEnv()
			defer env.Close()
			sig := NewSignal(env)
			env.SpawnStep("bad", cases[name](sig))
			got := func() (r any) {
				defer func() { r = recover() }()
				env.Run()
				return nil
			}()
			msg, ok := got.(string)
			if !ok || !strings.HasPrefix(msg, "sim: ") {
				t.Fatalf("recovered %#v, want a sim: panic message", got)
			}
		})
	}
}

// notifierScenario runs one-shot notifiers, spawned either as coroutines
// with SpawnAt or as step processes with SpawnStepAt, against a receiver
// that waits with a timeout and a ticker that wakes at the same instants,
// and returns the log of every observable action with its instant.
func notifierScenario(asStep bool) []string {
	env := NewEnv()
	defer env.Close()
	box := NewSignal(env)
	var mail []int
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%.9f ", float64(env.Now()))+fmt.Sprintf(format, args...))
	}
	notify := func(delay Duration, k int) {
		post := func() {
			note("post %d", k)
			mail = append(mail, k)
			box.Fire()
		}
		if asStep {
			env.SpawnStepAt(delay, "notify", func(*Proc) bool { post(); return false })
		} else {
			env.SpawnAt(delay, "notify", func(*Proc) { post() })
		}
	}
	for k, d := range []Duration{2, 1, 2, 0, 7} {
		notify(d*Microsecond, k)
	}
	const total = 8
	env.Spawn("receiver", func(p *Proc) {
		for got := 0; got < total; {
			if len(mail) == 0 {
				if box.WaitTimeout(p, 1500*Nanosecond) != nil {
					note("timeout")
				}
				continue
			}
			for _, k := range mail {
				note("recv %d", k)
				got++
				if k < 3 { // each early notice begets a later one
					notify(Duration(k)*Microsecond, 10+k)
				}
			}
			mail = mail[:0]
		}
	})
	env.Spawn("ticker", func(p *Proc) {
		for k := 0; k < 5; k++ {
			p.Sleep(Microsecond)
			note("tick %d", k)
		}
	})
	end := env.Run()
	note("end live=%d blocked=%v at %.9f", env.Live(), env.Blocked(), float64(end))
	return log
}

// A notifier spawned with SpawnStepAt acts in exactly the (time, seq)
// slots of the same notifier spawned with SpawnAt, ties with other
// processes' wake-ups at the same instant included.
func TestSpawnStepAtMatchesSpawnAt(t *testing.T) {
	co, st := notifierScenario(false), notifierScenario(true)
	if strings.Join(co, "\n") != strings.Join(st, "\n") {
		t.Fatalf("SpawnStepAt diverges from SpawnAt:\nSpawnAt:\n%s\nSpawnStepAt:\n%s",
			strings.Join(co, "\n"), strings.Join(st, "\n"))
	}
	if last := co[len(co)-1]; !strings.Contains(last, "live=0 blocked=[]") {
		t.Fatalf("scenario did not drain: %s", last)
	}
}

// Both delayed spawns reject a negative delay.
func TestSpawnAtNegativeDelayPanics(t *testing.T) {
	for name, spawn := range map[string]func(env *Env){
		"SpawnAt":     func(env *Env) { env.SpawnAt(-Microsecond, "neg", func(*Proc) {}) },
		"SpawnStepAt": func(env *Env) { env.SpawnStepAt(-Microsecond, "neg", func(*Proc) bool { return false }) },
	} {
		t.Run(name, func(t *testing.T) {
			env := NewEnv()
			defer env.Close()
			got := func() (r any) {
				defer func() { r = recover() }()
				spawn(env)
				return nil
			}()
			if msg, ok := got.(string); !ok || !strings.HasPrefix(msg, "sim: ") {
				t.Fatalf("recovered %#v, want a sim: panic message", got)
			}
		})
	}
}
