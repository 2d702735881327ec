// The waitgraph corpus: sim.Signal wait/fire patterns — deterministic
// deadlocks, lost wakes, unbound use, and timeout-free wait cycles.
package corpus

import sim "repro/internal/corpus/internal/sim"

// neverFired: the signal has a waiter but no Fire anywhere in the module.
func neverFired(env *sim.Env) {
	ready := sim.NewSignal(env)
	env.Spawn("stuck", func(p *sim.Proc) {
		ready.Wait(p) // want
	})
}

// deadWake: fired, but nothing ever waits.
func deadWake(env *sim.Env) {
	done := sim.NewSignal(env)
	env.Spawn("talker", func(p *sim.Proc) {
		done.Fire() // want
	})
}

// paired is the repo discipline: a guard-looped wait with a matching fire.
// Clean.
func paired(env *sim.Env) {
	work := sim.NewSignal(env)
	n := 0
	env.Spawn("consumer", func(p *sim.Proc) {
		for n == 0 {
			work.Wait(p)
		}
	})
	env.Spawn("producer", func(p *sim.Proc) {
		n++
		work.Fire()
	})
}

// lostWake fires before spawning the unguarded waiter: the wake lands
// before the waiter exists.
func lostWake(env *sim.Env) {
	torch := sim.NewSignal(env)
	env.Spawn("igniter", func(p *sim.Proc) {
		torch.Fire() // want
		p.Env().Spawn("late", func(cp *sim.Proc) {
			torch.Wait(cp)
		})
	})
}

// beacon embeds a value-type Signal, which must be Bind-ed before use.
type beacon struct {
	pulse sim.Signal
}

// unbound uses the embedded signal without ever calling Bind.
func unbound(env *sim.Env, b *beacon) {
	env.Spawn("watcher", func(p *sim.Proc) {
		b.pulse.Wait(p) // want
	})
	env.Spawn("pulser", func(p *sim.Proc) {
		b.pulse.Fire()
	})
}

// lamp is the bound counterpart: same shape plus Bind — clean.
type lamp struct {
	glow sim.Signal
}

func bound(env *sim.Env, l *lamp) {
	l.glow.Bind(env)
	cond := 0
	env.Spawn("dim", func(p *sim.Proc) {
		for cond == 0 {
			l.glow.Wait(p)
		}
	})
	env.Spawn("lighter", func(p *sim.Proc) {
		cond = 1
		l.glow.Fire()
	})
}

// cycle: two procs each wait (plain Wait, no guard loop, no timeout) on a
// signal fired only by the other — a deterministic deadlock, reported once
// at the earliest wait.
func cycle(env *sim.Env) {
	left := sim.NewSignal(env)
	right := sim.NewSignal(env)
	env.Spawn("pingproc", func(p *sim.Proc) {
		left.Wait(p) // want
		right.Fire()
	})
	env.Spawn("pongproc", func(p *sim.Proc) {
		right.Wait(p)
		left.Fire()
	})
}

// timeoutBreaks: the same shape with a WaitTimeout on one side contributes
// no cycle edge. Clean.
func timeoutBreaks(env *sim.Env) {
	c := sim.NewSignal(env)
	d := sim.NewSignal(env)
	env.Spawn("one", func(p *sim.Proc) {
		c.Wait(p)
		d.Fire()
	})
	env.Spawn("two", func(p *sim.Proc) {
		d.WaitTimeout(p, 5)
		c.Fire()
	})
}

// escaped: a signal handed to a helper aliases through the parameter, so
// both the local and the parameter drop out of the checks. Clean.
func escaped(env *sim.Env) {
	e := sim.NewSignal(env)
	env.Spawn("waiter", func(p *sim.Proc) {
		parkOn(e, p)
	})
}

func parkOn(s *sim.Signal, p *sim.Proc) {
	s.Wait(p)
}

// suppressed records a justified exception: no finding.
func suppressed(env *sim.Env) {
	quiet := sim.NewSignal(env)
	env.Spawn("mute", func(p *sim.Proc) {
		//cdivet:allow waitgraph corpus case: the firing side lives outside this module
		quiet.Wait(p)
	})
}

// armed: a step process arms the signal instead of waiting on it. The arm
// counts as the waiter, so the fire is not a lost wake. Clean.
func armed(env *sim.Env) {
	kick := sim.NewSignal(env)
	env.SpawnStep("stepper", func(p *sim.Proc) bool {
		kick.Arm(p)
		return true
	})
	env.Spawn("kicker", func(p *sim.Proc) {
		kick.Fire()
	})
}

// armedNeverFired: an arm with no Fire anywhere parks the step process
// forever.
func armedNeverFired(env *sim.Env) {
	stall := sim.NewSignal(env)
	env.SpawnStep("stalled", func(p *sim.Proc) bool {
		stall.Arm(p) // want
		return true
	})
}

// delayedArmNeverFired: a delayed step process arms a signal nothing fires.
func delayedArmNeverFired(env *sim.Env) {
	latch := sim.NewSignal(env)
	env.SpawnStepAt(5, "late-stepper", func(p *sim.Proc) bool {
		latch.Arm(p) // want
		return true
	})
}

// delayedRelay: the relay spawns a delayed step process that fires left,
// then waits for right, which the other proc fires once left wakes it.
// The step body is its own process, not part of the relay, so the relay
// does not fire left and there is no wait cycle. Clean.
func delayedRelay(env *sim.Env) {
	left := sim.NewSignal(env)
	right := sim.NewSignal(env)
	env.Spawn("relay", func(p *sim.Proc) {
		p.Env().SpawnStepAt(5, "opener", func(sp *sim.Proc) bool {
			left.Fire()
			return false
		})
		right.Wait(p)
	})
	env.Spawn("follower", func(p *sim.Proc) {
		left.Wait(p)
		right.Fire()
	})
}
