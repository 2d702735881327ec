package sim

// Shard is an ownership domain within an Env: the spawn-time key (a device,
// a node, an OpenMP thread) that records which hardware domain a process
// models. Shards change nothing about delivery order — every wake-up goes
// through the environment's single (time, seq) queue — so experiment
// outputs are byte-identical with one shard or fifty. The key exists for
// the shard-ownership checks that reason about which domain may touch
// which state.
type Shard struct {
	env *Env
	id  int
}

// NewShard creates an additional event domain. Processes that model one
// hardware domain (a device, a node, a submitter thread) should share a
// shard; unrelated domains should get their own.
func (e *Env) NewShard() *Shard {
	if len(e.shardSlab) == 0 {
		e.shardSlab = make([]Shard, 8)
	}
	s := &e.shardSlab[0]
	e.shardSlab = e.shardSlab[1:]
	s.env, s.id = e, e.nshards
	e.nshards++
	return s
}

// Env returns the environment that owns the shard.
func (s *Shard) Env() *Env { return s.env }

// ID returns the shard's creation index; shard 0 is the environment's
// default domain.
func (s *Shard) ID() int { return s.id }

// Spawn creates a process in this shard running fn, starting at the
// current virtual time.
func (s *Shard) Spawn(name string, fn func(p *Proc)) *Proc {
	return s.SpawnAt(0, name, fn)
}

// SpawnAt is Spawn with a start delay.
func (s *Shard) SpawnAt(delay Duration, name string, fn func(p *Proc)) *Proc {
	return s.env.spawnAt(s, delay, &Proc{name: name, fn: fn})
}

// SpawnStep creates a stackless step process in this shard, starting at the
// current virtual time. A step process has no coroutine: step runs as a
// plain call at each of its wake-ups, the first being its start. It must
// never block. Instead it arms its next wake-up with Proc.ArmTimer,
// Signal.Arm or Resource.AcquireOrArm and returns true, or returns false
// to end the process. Its wake-ups take the same (time, seq) slots the
// equivalent blocking code would, so converting a coroutine body to a step
// body leaves the event order unchanged, and a coroutine that parks runs a
// step wake-up heading the queue inline instead of switching away.
func (s *Shard) SpawnStep(name string, step func(p *Proc) bool) *Proc {
	return s.env.spawnAt(s, 0, &Proc{name: name, step: step})
}
